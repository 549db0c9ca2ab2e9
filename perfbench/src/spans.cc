#include "spans.hh"

#include <fstream>

#include "obs/json.hh"

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder &rec, const char *name)
    : rec_(&rec)
{
    if (!rec.enabled_)
        return;
    const int64_t parent = rec.open_.empty() ? -1 : rec.open_.back();
    index_ = static_cast<int64_t>(rec.spans_.size());
    rec.spans_.push_back({name, rec.nowNs(), 0, parent});
    rec.open_.push_back(index_);
}

SpanRecorder::Scope::~Scope()
{
    if (index_ < 0)
        return;
    rec_->spans_[static_cast<size_t>(index_)].endNs = rec_->nowNs();
    rec_->open_.pop_back();
}

int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    logtm::JsonWriter w(os);
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        w.beginObject();
        w.field("name", s.name);
        w.field("ph", "X");
        w.field("pid", 1);
        w.field("tid", 1);
        w.field("ts", static_cast<double>(s.startNs) / 1e3);
        w.field("dur", static_cast<double>(s.endNs - s.startNs) / 1e3);
        w.key("args");
        w.beginObject();
        w.field("id", static_cast<int64_t>(i));
        w.field("parent", s.parent);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
