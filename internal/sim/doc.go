// Package sim implements a deterministic discrete-event simulation (DES)
// engine used to model the heterogeneous CPU-GPU cluster on which the
// reproduced experiments run.
//
// The engine advances a virtual clock through an indexed event heap (plus a
// FIFO ring for events at the current instant) and runs every event as a
// callback, inline, on the one goroutine that called Run. Simulated
// activities that wait in virtual time are continuations (Cont): an owned,
// pre-bound event node plus a step function. The activity keeps its
// position as explicit state; its step advances that state until a
// blocking primitive — Cont.Wait, Server.Acquire, Link.Transfer — cannot
// complete in place, then returns, and the engine calls the step again at
// the resume instant. A primitive reports true when it completed in place
// (the step continues inline) and false when it parked the continuation.
// No goroutine, stack or channel is involved, so simulations are fully
// deterministic: the same inputs always produce the same event order and
// the same virtual timestamps, regardless of GOMAXPROCS.
//
// The substrate is allocation-lean by design — this package is the hot path
// of every experiment sweep. Engine.Schedule is fire-and-forget: its event
// nodes are pooled and recycled, and no handle to them escapes.
// Continuations and link flows own their nodes and reuse them across every
// park/resume cycle; a Link moves its completion node in place on the live
// heap (a heap fix) instead of removing and re-pushing it. Steady-state
// event traffic allocates nothing, and Arena carries the warmed storage
// from one engine to the next.
//
// A run ends when its schedule drains or when a callback calls
// Engine.Stop, which drops every pending event; that is how a simulation
// with endless background activity (fault injection's crash and straggler
// cycles) ends once its work is done.
//
// Three primitives cover everything the cluster model needs:
//
//   - Engine: the virtual clock and event queue, with deterministic
//     activity counters (Engine.Stats).
//   - Server: a capacity-constrained resource with a FIFO wait queue
//     (CPU cores, GPU devices, the scheduler master thread). Continuations
//     queued on a Server when the schedule drains are a deadlock, which
//     Run reports.
//   - Link: a fluid-flow, fair-shared bandwidth resource (PCIe buses, node
//     disks, NICs, the shared GPFS backend). Concurrent transfers share the
//     bandwidth equally; rates are recomputed whenever a transfer starts or
//     finishes, which models I/O contention at the granularity the paper's
//     analysis needs (SimGrid-style fluid model).
//
// Virtual time is measured in float64 seconds.
package sim
