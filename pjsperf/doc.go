// Command pjsperf is the simulator's end-to-end benchmark. It times
// whole simulations the way users run them, through the public layer
// functions — workload.Generate or ReadSWF and Trace.ScaleLoad, then
// sched.RunChecked, check.Check, metrics.FromResult and the report and
// obs renders — checks every output against a digest, and, in a traced
// run, splits the time over the layers.
//
// # Running it
//
// From the repository root, one workload at a time (this builds into
// .bench_build/ first and ends with a one-line JSON result):
//
//	bash pjsperf/run.sh --workload preempt-ctc --seed 1 --seconds 25 --trace 0
//	bash pjsperf/run.sh --workload preempt-ctc --seed 1 --seconds 25 --trace 1
//
// Every workload, passes interleaved, written to a report, then two
// reports compared:
//
//	cd pjsperf && go run . -suite -trace 1 -out old.json   # also old.trace.json
//	cd pjsperf && go run . -suite -trace 1 -out new.json
//	cd pjsperf && go run . -compare old.json new.json
//
// A run is a sequence of passes; a pass runs every cell of the workload
// once. A -workload run makes at least two passes and then more while
// another pass, at the mean pass time so far, would end within -seconds;
// with -trace 1 the passes alternate untraced and traced, starting
// untraced. A -suite run measures every workload that way, with three
// passes at least, interleaving the workloads pass by pass, and with
// -trace 1 makes one traced pass of each more; it takes two and a half
// to three minutes on a two-core Xeon VM. The first pass is kept: every
// later pass is checked against it, and the first pass was found no
// slower than later ones. The inputs come from -seed alone.
//
// Exit codes: 0 success, 1 a cell failed or the run could not start,
// 2 bad flags, 3 -compare found a regression or more failed cells.
// The baseline/ directory holds two back-to-back -suite -trace 1 runs,
// the first with its span file, and their -compare output.
//
// # Workloads
//
// A workload is a fixed set of cells, each one simulation of a trace of
// its own, drawn from the seed: reps of them for every load and policy.
// Each trace is scaled so that its offered load is exactly the load
// factor times the model's nominal offered load. Each workload loads a
// layer the others leave alone:
//
//	preempt-ctc     SS:2, CTC, 120 traces × 1000 jobs, load 2. The paper's
//	                headline policy. Nearly all the time is SS's OnTick: the
//	                per-tick xfactor sort of the idle queue and victim
//	                selection. Work on the tick path must show here.
//	backfill-swf    NS (EASY), SDSC, 8 traces × 50k jobs serialised to SWF
//	                before timing, parsed and scaled to load 1.2 as set-up.
//	                No ticks and no preemption: the engine heap, driver
//	                bookkeeping and EASY scans, and a real parse as set-up.
//	                None of the SS code runs.
//	faults-ns       NS, CTC, 12 traces × 15000 jobs, MTBF 500 h, MTTR 2 h, a
//	                fault model under which runs converge. Env.HandleProcFail
//	                scans every job per failure and the policy's OnFailure
//	                rebuilds; no suspensions happen.
//	observed-sweep  SDSC, 1000-job traces, 12 for each of loads {1.0, 1.2,
//	                1.4} × {NS, SS:2, IS}, Disk overhead, audit log, observers
//	                FanOut(Counters, Sampler), invariant check, summary and
//	                renders, the way `pexp -verify -counters` runs. Emission
//	                (audit append, the observer's O(jobs) max-xfactor scan
//	                per event) and post-processing run nowhere else.
//
// Many independent traces instead of one large one, and exact load
// scaling, keep runs at different seeds close: the work of one 1000-job
// CTC trace under SS varies from seed to seed with a coefficient of
// variation of 0.18, and a sum over n independent traces varies √n
// times less.
//
// # End-to-end metrics
//
// Each is the median over the untraced passes of a run, of the pass's
// total over all cells:
//
//	wall_s      s    lower   bound 25%  the whole pipeline, set-up to render
//	setup_s     s    lower   bound 25%  generate or parse, plus scale
//	jobs_per_s  1/s  higher  bound 25%  jobs simulated / time in sched.RunChecked
//	alloc_mb    MB   lower   bound 10%  heap allocated by the pipeline
//	live_mb     MB   lower   bound 5%   heap the pass's Results retain after a GC,
//	                                    over the heap before the pass
//
// The bound is the share by which a median may worsen before -compare
// calls it a regression; BENCHMARK.json and the endToEnd table agree,
// which a test checks. The times need the wide bound: across ten seeds,
// run back to back on a shared two-core Xeon VM, their interquartile
// range was 3–7% of the median, and reached 11% before the calibration
// below took its present form; the memory figures' was under 1.5%.
// There are too few passes for a tail percentile.
//
// A cell fails on a run error, an invariant-check violation, a digest
// differing from the first pass's (or, at seed 1, from the golden digest
// in the workload table) or an event count drifting between passes; the
// result line counts attempted and failed cells.
//
// A cell's digest is FNV-64a over each job's (ID, FirstStart,
// FinishTime, Suspensions, Resubmits, Kills), the Result's fault and I/O
// tallies, the summary table render and, on audited cells,
// AuditLog.String(). The event count is left out on purpose, so that a
// simulator skipping idle ticks stays correct.
//
// # Calibration
//
// The process runs with GOMAXPROCS=1: the simulator is single-threaded,
// and a second P let the collector and idle-P spinning share the machine
// with it, which more than doubled the pass-to-pass spread. Two fixed
// kernels — sorting a pseudo-random slice of 2^20 int64s, and pushing
// 2^17 newly allocated records through a binary heap of pointers, best
// of three each — are timed before the first cell of a pass and again
// before any cell that starts two seconds or more after the last
// reading. Each cell's times are reported in reference seconds, raw ×
// calibRef / the geometric mean of the two kernel times, so that a slow
// spell of the shared machine cancels out. The shared VM's other tenants
// slow the simulator in ways that change over the hours: in one study
// the sort tracked the drift best, in another the pointer heap. Their
// geometric mean matched or beat the better of the two on 11 of 12
// workload-study pairs, and neither a random pointer chase nor a sort of
// pointers, alone or mixed in, did better overall. In one ten-seed study
// of every workload the mean left an interquartile range of wall_s of
// 2.3–5.1% of the median, the sort alone 2.5–7.9%, raw times 5.7–12.5%.
// The drift within a second or two, which no reading taken beforehand
// can follow, is what remains. The report file keeps each pass's
// readings and raw wall time.
//
// # Per-layer metrics
//
// A traced pass wraps the policy in a Scheduler decorator that times
// each hook and the observer in one that times each delivery, and times
// the stage calls directly. Spans form a stack, so each layer's self time
// is its spans' duration minus the spans inside them, and the self times
// add up to the pass's wall time exactly. Times are reported as shares
// (frac) of the traced wall time, trace.wall_s, because most layers do
// no work at all on some workload; stage spans are written to
// <out>.trace.json as Chrome trace JSON. Each layer should move an
// end-to-end metric on one workload:
//
//	policy.tick_frac                    jobs_per_s, wall_s on preempt-ctc (most of the run);
//	                                    0 on backfill-swf and faults-ns
//	probe.victim_select_frac,           split tick between sorting and victim selection on
//	probe.queue_scan_frac               preempt-ctc (inclusive, inside policy.*)
//	policy.arrival_frac,                jobs_per_s on backfill-swf
//	policy.completion_frac,
//	driver.self_frac                    (engine heap, driver, cluster: RunChecked minus the
//	                                    policy and sinks) jobs_per_s on backfill-swf and faults-ns
//	policy.failure_frac                 jobs_per_s on faults-ns
//	workload.{generate,parse,scale}_frac  setup_s; parse on backfill-swf
//	obs.sink_frac, emit.self_frac,      wall_s on observed-sweep; near 0 on preempt-ctc,
//	check.replay_frac,                  but summarising 400k and 180k jobs per pass takes
//	metrics.summarize_frac,             6% of backfill-swf and 2% of faults-ns.
//	report.render_frac                  emit.self_frac reruns each observed cell without
//	                                    audit and observers: observed − unobserved − sinks
//	runtime.gc_cpu_frac,                alloc_mb and jobs_per_s on backfill-swf
//	simulate.allocs_per_event,
//	simulate.alloc_mb, setup.alloc_mb
//
// The counts (policy.*_calls, obs.events, check.entries, sim.events,
// sched.suspensions, sched.resubmits, fault.failures) repeat exactly for
// a seed. trace.overhead_frac is the traced RunChecked time over the
// untraced one, minus 1.
package main
