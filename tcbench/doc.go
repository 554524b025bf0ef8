// Command tcbench is the repository's end-to-end benchmark: it runs the
// simulator the way the paper's experiments and the job service use it,
// checks the outputs, and prints every metric by name with its unit.
//
//	bash tcbench/run.sh --workload volano-720 --seed 1 --seconds 30 --trace 0
//	bash tcbench/run.sh --workload all --seed 1 --seconds 30 --trace 1
//
// run.sh builds this module (its go.mod points at the repository root)
// into .bench_build/ and runs it; "all" runs each workload in its own
// process. The last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics: the end_to_end metrics of
// BENCHMARK.json with --trace 0, the per_layer metrics with --trace 1.
// Every failed output check is printed, counted in failed, and makes
// the exit code nonzero.
//
// # Workloads
//
// Each workload runs in one process, repeating a fixed-size iteration
// (starting from a collected heap) while the next one is expected to end
// within 10% past --seconds, and reports medians over iterations.
// GOMAXPROCS, the sweep pool and the server's task workers are capped at
// the host's CPU count; the grid job talks to the server over one client
// connection.
//
//   - volano-720: the VolanoMark analogue (confined generator) on the
//     OpenPower 720, one default-policy machine and one clustered machine
//     with the engine attached, each through warm -> engine -> measure.
//     Default rounds take the chip-parallel deferred path; clustered
//     rounds run serially with the PMU handler armed. Cache, barrier, PMU
//     and execution-path changes show here; generator changes should not.
//   - jbb-32way: the Section 7.4 SPECjbb analogue (8 warehouses x 8
//     threads) on the 8-chip Power5 32-way, default then clustered, built
//     as experiments.Scale32 builds it. The generator mutates a shared
//     B-tree and is unconfined, so every round is serial; generator,
//     allocation and GC costs show here.
//   - grid-job: a closed loop of tcsimd jobs. One client submits a grid
//     job (all four workloads x the four policies on open720, short
//     phases, base seed = the workload seed) over loopback HTTP to an
//     in-process server, waits for the result, then submits the next.
//     Cold short runs: set-up, the sweep pool, metric snapshots, payload
//     marshal and digest, and the server queue show here.
//
// The simulation workloads drive each machine through the steps of
// experiments.RunWorkload one public call at a time (BuildWorkload or
// NewJBB, NewMachine, Spec.Install, Engine.Install, RunRoundsCtx(ctx, 1)
// per round, SnapshotMetrics, Delta), so every step can be timed from
// outside. The grid-job traced run replays its grid offline through the
// same runner and checks that the digest equals experiments.RunGrid's,
// which pins the runner to RunWorkload's behaviour.
//
// # Output checks
//
// Every machine must satisfy two conservation laws over its measured
// interval: per-thread Cycles sum to pmu_cycles_total, and per-thread
// RemoteMisses sum to the remote-L2 plus remote-L3 cache_accesses_total
// delta. Each simulation iteration must keep the paper's shape
// (remote_cut_pct > 0 and clustered_gain_pct > 0) and reproduce the
// run's first iteration's measured-interval digest. Every grid-job
// payload must be byte-identical to the payload of experiments.RunGrid
// run offline on the same spec before the timed loop. A traced
// iteration must reproduce the untraced iteration's digests.
//
// # Metrics
//
// End-to-end metrics are measured with tracing off and are the same on
// every workload, so they are the ones BENCHMARK.json bounds and the
// final JSON line carries: refs_per_s (simulated references per host
// second of simulation), wall_s (one iteration), setup_s (median of many
// set-ups), allocs_per_ref and peak_rss_mb. The human-readable lines add
// the workload-specific ones with their sample counts: round_p50_ms and
// round_p99_ms (the highest percentile with at least ten samples beyond
// it) over the clustered machine's rounds, remote_cut_pct and
// clustered_gain_pct with the paper's figures beside them, job_p50_s and
// cells_per_s on grid-job, and fail_frac everywhere. Round and job
// latency stay unbounded: they exist on only some workloads, and on a
// 2-core host their run-to-run spread (9 to 21% for round p50 on
// jbb-32way) exceeds any usable bound.
//
// The model is calibrated to the paper's shape, not its magnitudes
// (EXPERIMENTS.md), so no error figure against the paper is claimed.
//
// The traced run (--trace 1) runs one untraced iteration, then one
// traced iteration under the CPU profiler with the observers attached:
// a timing wrapper around each thread's Generator.Next (forwarding
// sim.ConfinedGenerator), OnTick observers registered just before and
// just after Engine.Install to bracket the engine's tick, and an
// OnClusters listener. Self shares bucket the profile by leaf package.
// Layers a workload does not exercise read 0, with the reason printed.
//
// # Seeds
//
// The workload seed reaches the simulator only through the workload
// builders and the grid's base seed. While the phase lengths were
// chosen, seeds 1 to 24 ran on volano-720 and 1 to 20 on jbb-32way; all
// keep the paper's shape (the smallest volano gain, seed 23, is +0.4%).
// The stability runs used seeds 1 to 10 on every workload. Seed 4242
// was never run while building the benchmark and is held out for
// checking later claims.
package main
