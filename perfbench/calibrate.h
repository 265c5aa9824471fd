// The host's speed, read from a fixed reference task.
//
// On a shared VM the whole machine runs faster or slower for minutes at a
// time, and every time the program takes moves with it. The reference task
// is code of the benchmark's own, not of the program, so timing it next to
// the program's work tells how fast the host ran then. The benchmark scales
// its gated times to a host on which the task takes kReferenceMs (see
// perfbench/README.md, "Host speed").
#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

namespace perfbench {

/// The reference task's time on the reference host.
constexpr double kReferenceMs = 10.0;

/// One calibration point: the median wall time, in ms, of three runs of the
/// reference task (about 10 ms each on a 4-vCPU VM). The task inserts into
/// and probes a hash table larger than the L2 cache, sorts, and builds
/// strings, the kinds of work the program does most. It is single-threaded
/// and fixed: nothing in it depends on the program.
double ReferenceMs();

/// The factor that scales a time taken between two calibration points to
/// the reference host: kReferenceMs over the points' mean.
double ScaleToReference(double before_ms, double after_ms);

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
