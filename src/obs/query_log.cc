#include "obs/query_log.h"

namespace sdw::obs {

size_t QueryRecord::history_bytes() const {
  size_t bytes =
      sizeof(*this) + sql_text.size() + status.size() + snapshot.size();
  if (trace) {
    bytes += sizeof(Trace);
    for (const Span& s : trace->spans()) bytes += sizeof(Span) + s.name.size();
  }
  return bytes;
}

QueryLog::Started QueryLog::StartQuery() {
  return {next_query_id_.fetch_add(1), clock_.load()};
}

uint64_t QueryLog::FinishQuery(QueryRecord record) {
  if (record.trace) {
    record.trace->AssignVirtualTimes(record.start_tick);
    record.end_tick = record.trace->end_tick();
  } else {
    record.end_tick = record.start_tick + 1;
  }
  const uint64_t end_tick = record.end_tick;
  uint64_t clock = clock_.load();
  while (clock < end_tick && !clock_.compare_exchange_weak(clock, end_tick)) {
  }
  history_.Append(std::move(record));
  return end_tick;
}

}  // namespace sdw::obs
