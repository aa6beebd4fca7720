#include "stats/json.hh"

namespace gds::stats
{

namespace
{

void
dumpGroup(const Group &group, common::JsonWriter &w)
{
    w.beginObject();
    for (const Stat *s : group.stats()) {
        w.key(s->name());
        if (const auto *scalar = dynamic_cast<const Scalar *>(s)) {
            w.number(scalar->value());
        } else if (const auto *vec = dynamic_cast<const Vector *>(s)) {
            w.beginArray();
            for (std::size_t i = 0; i < vec->size(); ++i)
                w.number(vec->at(i));
            w.endArray();
        } else if (const auto *dist =
                       dynamic_cast<const Distribution *>(s)) {
            w.beginObject();
            for (std::size_t b = 0; b < Distribution::numBuckets(); ++b)
                w.key(Distribution::bucketLabel(b))
                    .integer(dist->bucketCount(b));
            w.endObject();
        } else {
            w.null();
        }
    }
    for (const Group *child : group.childGroups()) {
        w.key(child->name());
        dumpGroup(*child, w);
    }
    w.endObject();
}

} // namespace

void
dumpJson(const Group &group, std::ostream &os)
{
    common::JsonWriter w(os);
    dumpGroup(group, w);
    os << '\n';
}

} // namespace gds::stats
