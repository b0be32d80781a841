package experiment

import (
	"repro/internal/cdriver/ccompile"
	"repro/internal/obs"
)

// Phase labels of the boot pipeline, in execution order. The
// incremental front end records respan/check/compile for its span
// re-parse, declaration re-check and in-place patch; the full pipeline
// records the same three phases for its whole-program parse, check and
// backend construction (compile includes insmod-time global
// initialisers). Execute covers the workload's boot sequence, classify
// the outcome taxonomy tail (console scan, coverage, damage audit).
const (
	PhaseRespan   = "respan"
	PhaseCheck    = "check"
	PhaseCompile  = "compile"
	PhaseExecute  = "execute"
	PhaseClassify = "classify"
)

// BootPhases lists the phase labels in pipeline order.
var BootPhases = []string{PhaseRespan, PhaseCheck, PhaseCompile, PhaseExecute, PhaseClassify}

// Metric family names the boot pipeline registers. Every name listed
// here must appear in ARCHITECTURE.md's Observability section —
// scripts/check_docs.sh enforces that via `driverlab metrics`.
const (
	// MetricBootPhase histograms wall time per pipeline phase, labelled
	// {workload, phase}.
	MetricBootPhase = "driverlab_boot_phase_seconds"
	// MetricFullFrontend counts incremental-front-end boots that fell
	// back to the full lex/parse/check/compile pipeline because the
	// mutation was span-unsafe (or the configuration cannot run
	// incrementally).
	MetricFullFrontend = "driverlab_boot_frontend_full_total"
	// MetricBlocksCompiled counts basic blocks the block backend fused
	// (full compiles and incremental patches alike).
	MetricBlocksCompiled = "driverlab_exec_blocks_compiled_total"
	// MetricBlocksFusedStmts counts statements folded into fused blocks.
	MetricBlocksFusedStmts = "driverlab_exec_blocks_fused_stmts_total"
	// MetricBlocksBatchedIO counts port-I/O call sites compiled to a
	// direct closure (no argument buffer).
	MetricBlocksBatchedIO = "driverlab_exec_blocks_batched_io_total"
	// MetricBlocksFallback counts port-I/O call sites the block backend
	// left on the generic argument-buffer builtin call (wrong-arity
	// mutants).
	MetricBlocksFallback = "driverlab_exec_blocks_fallback_total"
	// MetricSuperblocksCompiled counts loops the block backend compiled
	// to single-closure superblocks (threaded loop bodies).
	MetricSuperblocksCompiled = "driverlab_exec_superblocks_compiled_total"
	// MetricSuperblockStmts counts statements folded into loop
	// superblocks.
	MetricSuperblockStmts = "driverlab_exec_superblocks_stmts_total"
	// MetricLoopKernels counts superblock loops whose steady state runs
	// as one loop kernel (transfer loops, bounded polls, busy-waits).
	MetricLoopKernels = "driverlab_exec_loop_kernels_total"
	// MetricSnapshotHits named the counter of boots served from a
	// pristine-prefix snapshot, a mechanism that no longer exists. The
	// boot pipeline registers no such family; the name stays exported
	// only because the benchmark module (bench/run.go) still reads it,
	// and a lookup of an unregistered family reads 0.
	MetricSnapshotHits = "driverlab_exec_snapshot_hits_total"
	// MetricInterpFallbacks named the counter of block-backend boots
	// that executed on the reference interpreter. Every program now
	// compiles, so the boot pipeline registers no such family; the name
	// stays exported, like MetricSnapshotHits, for bench/run.go.
	MetricInterpFallbacks = "driverlab_boot_interp_fallbacks_total"
)

// BootMetricNames lists every metric family the boot pipeline can
// register, for the docs check and the `driverlab metrics` subcommand.
func BootMetricNames() []string {
	return []string{MetricBootPhase, MetricFullFrontend,
		MetricBlocksCompiled, MetricBlocksFusedStmts, MetricBlocksBatchedIO, MetricBlocksFallback,
		MetricSuperblocksCompiled, MetricSuperblockStmts, MetricLoopKernels}
}

// bootObs is the per-rig instrumentation bundle the boot pipeline
// records into. All fields of the shared noObs instance are nil, and
// every obs operation on nil is a no-op, so the uninstrumented hot
// path costs one pointer load per phase and zero allocations.
type bootObs struct {
	respan   *obs.Histogram
	check    *obs.Histogram
	compile  *obs.Histogram
	execute  *obs.Histogram
	classify *obs.Histogram

	fullFrontend *obs.Counter

	blocksCompiled  *obs.Counter
	blocksFused     *obs.Counter
	blocksBatchedIO *obs.Counter
	blocksFallback  *obs.Counter
	superblocks     *obs.Counter
	superblockStmts *obs.Counter
	loopKernels     *obs.Counter
}

// addBlockStats records one compile's (or patch's) fusion work.
func (o *bootObs) addBlockStats(s ccompile.BlockStats) {
	o.blocksCompiled.Add(s.Blocks)
	o.blocksFused.Add(s.FusedStmts)
	o.blocksBatchedIO.Add(s.BatchedIO)
	o.blocksFallback.Add(s.FallbackIO)
	o.superblocks.Add(s.Superblocks)
	o.superblockStmts.Add(s.SuperStmts)
	o.loopKernels.Add(s.LoopKernels)
}

// noObs is the disabled bundle every rig starts with.
var noObs = &bootObs{}

// newBootObs binds one workload's boot-pipeline metrics on col (the
// disabled bundle when col is nil).
func newBootObs(col *obs.Collector, workload string) *bootObs {
	if col == nil {
		return noObs
	}
	h := func(phase string) *obs.Histogram {
		return col.Histogram(MetricBootPhase,
			"Wall time of one boot-pipeline phase.", obs.DurationBuckets,
			"workload", workload, "phase", phase)
	}
	return &bootObs{
		respan:   h(PhaseRespan),
		check:    h(PhaseCheck),
		compile:  h(PhaseCompile),
		execute:  h(PhaseExecute),
		classify: h(PhaseClassify),
		fullFrontend: col.Counter(MetricFullFrontend,
			"Incremental-front-end boots that fell back to the full pipeline (span-unsafe).",
			"workload", workload),
		blocksCompiled: col.Counter(MetricBlocksCompiled,
			"Basic blocks the block backend fused (compiles and patches).",
			"workload", workload),
		blocksFused: col.Counter(MetricBlocksFusedStmts,
			"Statements folded into fused basic blocks.",
			"workload", workload),
		blocksBatchedIO: col.Counter(MetricBlocksBatchedIO,
			"Port-I/O call sites compiled to a direct closure.",
			"workload", workload),
		blocksFallback: col.Counter(MetricBlocksFallback,
			"Port-I/O call sites left on the generic argument-buffer builtin call.",
			"workload", workload),
		superblocks: col.Counter(MetricSuperblocksCompiled,
			"Loops compiled to single-closure superblocks.",
			"workload", workload),
		superblockStmts: col.Counter(MetricSuperblockStmts,
			"Statements folded into loop superblocks.",
			"workload", workload),
		loopKernels: col.Counter(MetricLoopKernels,
			"Superblock loops whose steady state runs as one loop kernel.",
			"workload", workload),
	}
}
