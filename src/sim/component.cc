#include "sim/component.hh"

#include <algorithm>

#include "sim/checkpoint.hh"

namespace gds::sim
{

Component::Component(std::string component_name, Component *parent)
    : _name(std::move(component_name)),
      _parent(parent),
      _stats(parent ? &parent->statsGroup() : nullptr, _name)
{
    if (_parent)
        _parent->_children.push_back(this);
}

Component::~Component()
{
    if (_parent) {
        auto &siblings = _parent->_children;
        siblings.erase(std::remove(siblings.begin(), siblings.end(), this),
                       siblings.end());
    }
}

const char *
Component::tracePath() const
{
    if (_tracePath.empty())
        _tracePath = _stats.path();
    return _tracePath.c_str();
}

std::uint64_t
Component::subtreeProgress() const
{
    std::uint64_t total = _progressCount;
    for (const Component *child : _children)
        total += child->subtreeProgress();
    return total;
}

void
Component::saveState(Serializer &s) const
{
    fields(*this, s);
}

void
Component::restoreState(Deserializer &d)
{
    fields(*this, d);
}

bool
Component::subtreeBusy() const
{
    if (busy())
        return true;
    for (const Component *child : _children) {
        if (child->subtreeBusy())
            return true;
    }
    return false;
}

} // namespace gds::sim
