/**
 * @file
 * Chrome-tracing (Perfetto) export of captured simulator trace events.
 *
 * Everything captured by a trace::Recorder becomes a JSON document in
 * the Chrome trace-event format: open it at chrome://tracing or
 * https://ui.perfetto.dev. Each simulated component
 * ("persist.arbiter[3]", "l1[0]", ...) becomes its own named track;
 * ticks render as microseconds, so 1 us on the timeline = 1 core cycle.
 *
 * Two event classes are emitted:
 *  - duration spans (ph:"B"/"E", or ph:"X" when zero-length) for epoch
 *    lifecycles, flush drains, MSHR busy episodes, core execution, NVM
 *    write-queue residency and persist conflicts (an intra-thread
 *    conflict's wait; an inter-thread conflict's detection, zero
 *    length). Chrome requires B/E to nest per track, so overlapping
 *    spans of one component (concurrent epochs!) are splayed onto
 *    greedily-allocated lanes ("persist.arbiter[0]",
 *    "persist.arbiter[0] #2", ...); the lanes sit side by side and the
 *    overlap reads directly off the UI;
 *  - counter tracks (ph:"C") for the interval-stat samples (IPC,
 *    epochs in flight, queue depths, link utilization).
 */

#ifndef PERSIM_EXP_TRACE_EXPORT_HH
#define PERSIM_EXP_TRACE_EXPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "exp/json.hh"
#include "sim/trace.hh"

namespace persim::exp
{

/**
 * Everything captured by @p rec (duration spans, counter samples) as a
 * complete Chrome trace-event JSON document.
 *
 * @param processName Shown as the process label in the UI (use the
 *                    job id, e.g. "fig11/hash/LB++").
 */
JsonValue chromeTraceJson(const trace::Recorder &rec,
                          const std::string &processName);

/**
 * Write counter samples as a CSV time series: one "tick" column plus
 * one column per counter track (first-appearance order), one row per
 * sample tick. Cells are blank for tracks without a sample at a tick.
 */
void writeCounterCsv(std::ostream &os,
                     const std::vector<trace::Counter> &counters);

} // namespace persim::exp

#endif // PERSIM_EXP_TRACE_EXPORT_HH
