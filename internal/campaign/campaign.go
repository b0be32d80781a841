// Package campaign turns the paper's evaluation into a scalable batch
// execution engine: a declarative Spec expands into a deterministic
// mutant work-list, the work-list partitions into hash-assigned shards,
// shards execute on a worker pool with per-worker machine reuse, and
// every boot outcome is appended to a Store as one JSONL record.
//
// The record stream — not the in-memory run — is the source of truth:
// an interrupted campaign resumes by skipping mutants the store already
// holds, independent shard runs merge by concatenation and
// de-duplication of records, and the paper's Tables 3/4 are re-derived purely from
// stored records, so a serial run and a 4-way sharded run of the same
// spec aggregate to identical tables.
//
// The package is deliberately free of repository-specific knowledge:
// what a "mutant" is and how one boots comes in through the Workload
// interface (implemented by internal/experiment), so the engine, store,
// sharding and aggregation logic are reusable for any enumerate-execute
// -classify campaign.
package campaign

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// Spec declares one campaign: the cross-product of target drivers with a
// sampling policy and execution knobs. Specs are pure data — the same
// spec always expands to the same work-list — and are persisted as the
// first record of every store so a campaign can be resumed or audited
// from the file alone.
type Spec struct {
	// Name labels the campaign in stores and reports.
	Name string `json:"name"`
	// Drivers lists the embedded driver sources to mutate (e.g. "ide_c",
	// "ide_devil", "busmouse_c", "busmouse_devil", "ne2000_c",
	// "ne2000_devil").
	Drivers []string `json:"drivers"`
	// SamplePct selects the percentage of mutants to boot (the paper used
	// 25); 0 or 100 boots everything.
	SamplePct int `json:"sample_pct"`
	// Seed drives the deterministic sampler.
	Seed uint64 `json:"seed"`
	// Shards is the partition count of the work-list (default 1).
	Shards int `json:"shards,omitempty"`
	// StubMode overrides the Devil stub mode: "", "debug" or "production".
	StubMode string `json:"stub_mode,omitempty"`
	// Permissive downgrades CDevil type checking to plain C rules.
	Permissive bool `json:"permissive,omitempty"`
	// Budget overrides the per-boot watchdog budget when non-zero.
	Budget int64 `json:"budget,omitempty"`
	// Backend forces the hwC execution backend: "" (the block-compiled
	// default), "block" or "interp" (the tree-walking reference oracle).
	Backend string `json:"backend,omitempty"`
	// Scenarios lists the hardware scenarios to cross the driver list
	// with, making the spec a scenario × driver matrix: every driver's
	// selected mutants boot once per scenario, and records carry the
	// scenario so each cell aggregates separately. Empty (or the single
	// "pristine" entry) is the classic one-cell campaign on unmodified
	// hardware. Scenario names are workload-defined (the experiment
	// workload registers "pristine", "flaky-bus" and "timing", with
	// optional ":param" suffixes); "" and "pristine" are the same cell.
	Scenarios []string `json:"scenarios,omitempty"`
	// Frontend forces the per-mutant front-end strategy: "" (the
	// incremental default), "incremental" or "full" (re-run the whole
	// lex/parse/check/compile pipeline per mutant). An execution
	// strategy, not a workload change: it is excluded from the
	// fingerprint, so a store can be resumed under either front end.
	Frontend string `json:"frontend,omitempty"`
	// FlushEvery overrides the file store's flush interval (records per
	// checkpoint; 0 keeps the store's default). Long campaigns raise it
	// to trade crash-loss window for fewer write(2) calls. A durability
	// knob, not a workload change: excluded from the fingerprint.
	FlushEvery int `json:"flush_every,omitempty"`
	// BootTimeoutMS overrides the per-boot wall-clock deadline in
	// milliseconds (0 keeps the workload's default). The deadline is the
	// harness safety net behind the deterministic step-count watchdog;
	// an execution knob, not a workload change: excluded from the
	// fingerprint.
	BootTimeoutMS int `json:"boot_timeout_ms,omitempty"`
}

// Normalized returns the spec with defaults applied and the backend
// name canonicalized, so every spelling of the same engine ("" vs
// "block", "tree" vs "interp") expands — and fingerprints — the same.
func (s Spec) Normalized() Spec {
	if s.Shards <= 0 {
		s.Shards = 1
	}
	if s.Name == "" {
		s.Name = "campaign"
	}
	switch s.Backend {
	case "block":
		s.Backend = "" // the default engine
	case "tree", "interpreter":
		s.Backend = "interp"
	}
	if s.Frontend == "incremental" {
		s.Frontend = "" // the default front end
	}
	// Scenario canonicalization: "pristine" and "" name the same cell,
	// duplicates collapse, and a list that is nothing but the pristine
	// cell is the same campaign as no list at all — so every spelling of
	// the classic campaign fingerprints identically to the pre-matrix
	// stores.
	if len(s.Scenarios) > 0 {
		var norm []string
		seen := make(map[string]bool)
		for _, sc := range s.Scenarios {
			if sc == "pristine" {
				sc = ""
			}
			if seen[sc] {
				continue
			}
			seen[sc] = true
			norm = append(norm, sc)
		}
		if len(norm) == 1 && norm[0] == "" {
			norm = nil
		}
		s.Scenarios = norm
	}
	return s
}

// Fingerprint is a stable hash of the normalized spec, stored in every
// spec record; resume and merge refuse stores whose fingerprints differ.
func (s Spec) Fingerprint() string {
	n := s.Normalized()
	n.Shards = 1        // shard count does not change the work-list, only its partition
	n.Frontend = ""     // front-end strategy does not change results (the oracle's guarantee)
	n.FlushEvery = 0    // durability tuning does not change the work-list
	n.BootTimeoutMS = 0 // the wall-clock safety net does not change the work-list
	data, err := json.Marshal(n)
	if err != nil {
		return "unhashable"
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Task is one unit of campaign work: boot one mutant of one driver.
// Mutant is the absolute mutant ID within the driver's enumeration, so a
// task's identity is stable across runs, shards and resumes.
type Task struct {
	Driver string
	Mutant int
	// Scenario is the hardware scenario cell this boot runs under (""
	// for pristine hardware). Part of the task's stable identity: the
	// same mutant boots once per matrix cell.
	Scenario string
	Shard    int
}

// Key is the task's stable identity in stores.
func (t Task) Key() string { return CellKey(t.Driver, t.Mutant, t.Scenario) }

// FaultSeed derives the task's fault-injection seed: an fnv64a hash of
// its stable identity. Scenario injectors reseed from it per boot, so
// the fault pattern a mutant meets is a pure function of the task —
// identical in serial, sharded and resumed runs, on either backend and
// front end, never drawn from global randomness.
func (t Task) FaultSeed() uint64 {
	h := fnv.New64a()
	h.Write([]byte(t.Key()))
	return h.Sum64()
}

// TaskKey builds the stable identity of a pristine (driver, mutant)
// pair — the record key every pre-matrix store used.
func TaskKey(driver string, mutant int) string {
	return fmt.Sprintf("%s#%d", driver, mutant)
}

// CellKey builds the stable identity of a (driver, mutant, scenario)
// boot. The pristine cell keeps the historical two-part key, so matrix
// machinery resumes and merges pre-matrix stores unchanged.
func CellKey(driver string, mutant int, scenario string) string {
	if scenario == "" {
		return TaskKey(driver, mutant)
	}
	return fmt.Sprintf("%s#%d@%s", driver, mutant, scenario)
}

// CellLabel names a (driver, scenario) matrix cell in aggregates,
// status views and reports; the pristine cell is just the driver.
func CellLabel(driver, scenario string) string {
	if scenario == "" {
		return driver
	}
	return driver + "@" + scenario
}

// recordKey is a result record's stable identity — CellKey over its
// driver, mutant and scenario fields.
func recordKey(r Record) string {
	return CellKey(r.Driver, r.Mutant, r.Scenario)
}

// Key is a result record's stable task identity — the same CellKey the
// matching Task carries, so stores, coordinators and workers agree on
// which task a record decides.
func (r Record) Key() string { return recordKey(r) }

// ShardOf assigns a pristine task to a shard by hashing its stable key;
// ShardOfTask is the scenario-aware form.
func ShardOf(driver string, mutant int, shards int) int {
	return ShardOfTask(Task{Driver: driver, Mutant: mutant}, shards)
}

// ShardOfTask assigns a task to a shard by hashing its stable key, so
// the partition is independent of enumeration order and worker count —
// and, for matrix campaigns, spreads each cell independently.
func ShardOfTask(t Task, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(t.Key()))
	return int(h.Sum64() % uint64(shards))
}

// Meta is the per-cell enumeration metadata a run captures so tables
// can be re-derived from the store without re-enumerating. Scenario is
// "" for the pristine cell.
type Meta struct {
	Driver     string
	Scenario   string
	Sites      int
	Enumerated int
	Selected   int
}

// Record kinds.
const (
	KindSpec   = "spec"   // first record: the campaign spec + fingerprint
	KindMeta   = "meta"   // one per driver: enumeration metadata
	KindResult = "result" // one per booted mutant
)

// RowHarnessPanic is the outcome row of a boot the harness itself blew
// up on: a recovered panic in the worker loop, recorded (and the mutant
// quarantined) instead of killing the campaign. An engine-level row, not
// part of the paper's taxonomy — it signals a harness bug to fix, and
// reports only print it when present.
const RowHarnessPanic = "Harness panic"

// Record is one line of a campaign store. A single flat schema keeps the
// JSONL human-greppable; Kind selects which fields are meaningful.
type Record struct {
	Kind string `json:"kind"`

	// Spec fields (KindSpec).
	Fingerprint string `json:"fingerprint,omitempty"`
	Spec        *Spec  `json:"spec,omitempty"`

	// Driver is set on meta and result records.
	Driver string `json:"driver,omitempty"`
	// Scenario is the matrix cell the record belongs to, on meta and
	// result records ("" — omitted — for the pristine cell, which keeps
	// pre-matrix stores byte-compatible).
	Scenario string `json:"scenario,omitempty"`

	// Meta fields (KindMeta).
	Sites      int `json:"sites,omitempty"`
	Enumerated int `json:"enumerated,omitempty"`
	Selected   int `json:"selected,omitempty"`

	// Result fields (KindResult).
	Mutant int    `json:"mutant"`
	Site   int    `json:"site"`
	Row    string `json:"row,omitempty"`
	Lost   bool   `json:"lost,omitempty"`
	Steps  int64  `json:"steps,omitempty"`
	Shard  int    `json:"shard"`
	// HarnessPanic marks a quarantined boot: the harness panicked, the
	// engine recovered, and Row is RowHarnessPanic. Panic carries the
	// recovered value's text for forensics.
	HarnessPanic bool   `json:"harness_panic,omitempty"`
	Panic        string `json:"panic,omitempty"`
}

// SpecRecord builds the leading store record for a spec.
func SpecRecord(s Spec) Record {
	n := s.Normalized()
	return Record{Kind: KindSpec, Fingerprint: n.Fingerprint(), Spec: &n}
}

// MetaRecord builds the store record for one cell's enumeration.
func MetaRecord(m Meta) Record {
	return Record{Kind: KindMeta, Driver: m.Driver, Scenario: m.Scenario,
		Sites: m.Sites, Enumerated: m.Enumerated, Selected: m.Selected}
}
