#include "sim/pipeline.h"

#include <algorithm>

namespace flexio::sim {

PipelineTrace simulate_pipeline(const PipelineSpec& spec) {
  FLEXIO_CHECK(spec.intervals >= 1);
  EventEngine engine;
  PipelineTrace trace;

  // State machines driven by three chained event streams:
  //  producer: produce interval k, then (sync: wait for its transfer) start
  //            interval k+1;
  //  channel:  one transfer at a time, FIFO;
  //  consumer: process intervals in order as their data arrives.
  int produced = 0;
  double channel_free = 0;
  double consumer_free = 0;

  // The chain is sequential, so a simple loop with simulated clocks is
  // exact; the event engine schedules the consumer completions so the
  // trace is also observable as events (and future extensions -- multiple
  // channels, variable intervals -- slot in naturally).
  double producer_clock = 0;
  for (int k = 0; k < spec.intervals; ++k) {
    producer_clock += spec.producer_seconds;
    // Transfer k occupies the channel after both the data exists and the
    // channel is free.
    const double transfer_start = std::max(producer_clock, channel_free);
    const double transfer_end = transfer_start + spec.movement_seconds;
    channel_free = transfer_end;
    if (!spec.async_movement) {
      // Synchronous: the producer blocks until its transfer completed.
      producer_clock = transfer_end;
    }
    ++produced;
    const double start = std::max(transfer_end, consumer_free);
    trace.consumer_idle += start - consumer_free;
    consumer_free = start + spec.consumer_seconds;
    trace.consumer_busy += spec.consumer_seconds;
    const double done = consumer_free;
    engine.schedule_at(done, [] {});  // observable completion event
  }
  engine.run();
  trace.producer_finish = producer_clock;
  trace.total_seconds =
      spec.consumer_seconds > 0 || spec.movement_seconds > 0
          ? std::max(producer_clock, consumer_free)
          : producer_clock;
  FLEXIO_CHECK(produced == spec.intervals);
  // First-interval idle is pipeline fill, not waiting: normalize so idle
  // counts only post-fill stalls.
  trace.consumer_idle -=
      std::min(trace.consumer_idle,
               spec.producer_seconds + spec.movement_seconds);
  return trace;
}

}  // namespace flexio::sim
