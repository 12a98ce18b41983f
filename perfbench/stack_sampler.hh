/**
 * @file
 * CPU-time stack sampler for the benchmark's traced runs.
 *
 * A process-wide ITIMER_PROF timer delivers SIGPROF as the process
 * burns CPU time (in any thread); the handler copies the interrupted
 * stack into a preallocated buffer.  Nothing is symbolized in the
 * handler: after stopSampling(), writeSamples() turns every return
 * address into an offset inside the driver executable (or "x" for a
 * frame in a shared library), and the benchmark resolves the offsets
 * against the executable's symbol table after the process exits.
 *
 * One sampler per process; startSampling() and stopSampling() must be
 * called from the same thread, and not while sampling is running.
 */

#pragma once

#include <cstddef>
#include <iosfwd>

namespace perfbench {

/** Begin sampling at (up to) @p hz samples per CPU-second.  Frames
 *  beyond @p maxWords buffered words are counted as dropped. */
void startSampling(int hz, std::size_t maxWords);

/** Stop sampling and wait for in-flight handlers to finish. */
void stopSampling();

/** Samples recorded / lost to a full buffer since startSampling(). */
std::size_t samplesRecorded();
std::size_t samplesDropped();

/**
 * Write one line per sample, innermost frame first: hexadecimal
 * offsets from the executable's load address, "x" for frames
 * outside the executable.  The sampler's own frames are omitted.
 */
void writeSamples(std::ostream &os);

} // namespace perfbench
