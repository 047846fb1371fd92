// Entry points of the benchmark's workloads (README.md describes each).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "bench_util.h"

namespace perfbench {

/// \brief SO-like cyclic stream, Table 1's SO RPQs Q1-Q4 on one engine,
/// with the PATH implementation `impl` (so-path / so-path-delta).
Report RunSoPath(const RunArgs& args, sgq::PathImpl impl);

/// \brief 1024 single-label standing queries over a Zipf-label CSV stream
/// file parsed inline through the file chunk source.
Report RunZipfFanout(const RunArgs& args);

/// \brief SNB-like stream driven through the subscription session
/// protocol, with churning subscriptions and periodic checkpoints.
Report RunSnbServe(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
