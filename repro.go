// Package repro reproduces "Improving Driver Robustness: an Evaluation of
// the Devil Approach" (Réveillère & Muller, DSN 2001 / INRIA RR-4136) as a
// self-contained Go library.
//
// The system has four layers:
//
//   - The Devil compiler (internal/devil and subpackages): scanner, parser,
//     the §2.2 consistency checker, and the §2.3 stub generator with
//     production and debug modes, including the Figure-4 C emitter.
//   - The substrates: a simulated ISA port space with device models
//     (internal/hw and subpackages), a boot kernel with a damage-auditable
//     filesystem (internal/kernel), and an hwC driver-language front end
//     with permissive/strict typing and two execution backends — the
//     closure-compiled campaign hot path (ccompile) and the tree-walking
//     reference oracle (cinterp) it is differentially tested against
//     (internal/cdriver).
//   - The evaluation: the §3 mutation rules (internal/mutation, cmut,
//     devilmut) and the experiment harness regenerating Tables 1–4 and
//     Figures 1/3/4. A fixed workload table (experiment.Workloads)
//     routes every driver pair to a declarative rig descriptor —
//     devices-on-bus assembly, reset hook, boot script, success audit —
//     so all five Table-2 devices (IDE, busmouse, NE2000, Permedia 2,
//     82371FB bus master) boot through one generic experiment.Rig with
//     kernel-audited workloads (internal/experiment).
//   - The campaign engine (internal/campaign): declarative mutation
//     campaigns expanded into deterministic work-lists, partitioned into
//     hash-assigned shards, executed on a worker pool with per-worker
//     machine reuse, and streamed as JSONL records to an append-only
//     store — so runs persist, resume after interruption, merge across
//     shards, and re-derive the paper's tables purely from stored
//     records. The in-memory tables (experiment.RunTables) run one
//     campaign on the same engine into an in-memory store.
//
// Binaries: cmd/devilc (the compiler), cmd/devilmut (spec mutation),
// cmd/driverlab (the full evaluation, including the `driverlab campaign`
// run/resume/merge/report subcommands). Runnable walkthroughs live under
// examples/. The benchmark harness in bench_test.go regenerates each table
// and figure under `go test -bench`, and reports campaign throughput in
// boots per second.
package repro
