package campaign

import (
	"sort"
	"sync"
	"time"
)

// Snapshot is the one status shape every surface renders: the /status
// JSON endpoint, the `driverlab campaign status` view, and the run
// progress line all read from this type, so they cannot drift apart.
// Live snapshots come from a StatusTracker attached to a running
// engine; offline snapshots are reconstructed from a store's records
// by SnapshotFromRecords (rates, ETA and worker count are then zero —
// a store does not record time).
type Snapshot struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Live distinguishes a running campaign's snapshot from an offline
	// store reconstruction.
	Live       bool    `json:"live"`
	Workers    int     `json:"workers,omitempty"`
	ElapsedSec float64 `json:"elapsed_s,omitempty"`

	// Total is the number of selected tasks; Recorded how many have a
	// result (Ran booted + Skipped already stored + Panics
	// quarantined).
	Total    int `json:"total"`
	Recorded int `json:"recorded"`
	Ran      int `json:"ran"`
	Skipped  int `json:"skipped"`
	// Panics counts quarantined harness panics: the boot blew up in the
	// harness, was recovered and recorded as RowHarnessPanic.
	Panics int `json:"panics,omitempty"`

	// BootsPerSec is Ran over elapsed time; ETASec extrapolates the
	// remaining tasks at that rate. Both are zero offline.
	BootsPerSec float64 `json:"boots_per_s,omitempty"`
	ETASec      float64 `json:"eta_s,omitempty"`

	// Fleet, when non-nil, is the coordinator's slice of the snapshot:
	// lease and protocol counters a single-process run does not have.
	Fleet *FleetStatus `json:"fleet,omitempty"`

	// Outcomes histograms every recorded result by outcome row.
	Outcomes map[string]int `json:"outcomes,omitempty"`
	// Drivers breaks progress down per driver, in plan order.
	Drivers []DriverStatus `json:"drivers,omitempty"`
	// Shards breaks progress down per shard index, ascending.
	Shards []ShardStatus `json:"shards,omitempty"`
}

// FleetStatus is a fleet coordinator's slice of a Snapshot: how the
// shard leases and the wire protocol are doing. It exists in this
// package (not in campaign/fleet) so Snapshot stays the one status
// shape every surface — /status JSON, `campaign status`, progress line
// — renders.
type FleetStatus struct {
	// Workers is the number of currently connected fleet workers.
	Workers int `json:"workers"`
	// ShardsTotal/ShardsComplete/ShardsLeased partition the campaign's
	// shard count by lease state (pending shards are the remainder).
	ShardsTotal    int `json:"shards_total"`
	ShardsComplete int `json:"shards_complete"`
	ShardsLeased   int `json:"shards_leased"`
	// Leases counts grants handed out; Releases counts leases returned
	// to the pending queue (worker disconnect, heartbeat lapse, or an
	// incomplete done), i.e. re-leased work.
	Leases   int64 `json:"leases"`
	Releases int64 `json:"releases"`
	// RejectedFrames counts protocol offenses (torn/oversized/unknown
	// frames, handshake violations); StaleRecords counts result records
	// that arrived for a task the store already held — the harmless
	// residue of a re-leased shard.
	RejectedFrames int64 `json:"rejected_frames"`
	StaleRecords   int64 `json:"stale_records"`
}

// DriverStatus is one matrix cell's slice of a Snapshot; Driver is the
// cell label ("driver" or "driver@scenario").
type DriverStatus struct {
	Driver      string  `json:"driver"`
	Selected    int     `json:"selected"`
	Recorded    int     `json:"recorded"`
	Ran         int     `json:"ran"`
	BootsPerSec float64 `json:"boots_per_s,omitempty"`
}

// ShardStatus is one shard's slice of a Snapshot. Planned is zero in
// offline snapshots of stores that never saw this run's shard plan.
type ShardStatus struct {
	Shard    int `json:"shard"`
	Planned  int `json:"planned,omitempty"`
	Recorded int `json:"recorded"`
}

// Percent returns recorded progress as a percentage (0 when nothing is
// planned).
func (s *Snapshot) Percent() float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(s.Recorded) / float64(s.Total)
}

// StatusTracker accumulates a running campaign's progress and serves
// point-in-time Snapshots — the engine writes to it, the HTTP /status
// handler and the progress printer read from it concurrently. A nil
// tracker is the disabled tracker; the engine's calls are guarded.
type StatusTracker struct {
	mu          sync.Mutex
	started     bool
	start       time.Time
	name        string
	fingerprint string
	workers     int

	total   int
	ran     int
	skipped int
	panics  int

	outcomes map[string]int
	drivers  map[string]*driverProgress
	order    []string
	shards   map[int]*shardProgress
}

type driverProgress struct {
	selected int
	recorded int
	ran      int
}

type shardProgress struct {
	planned  int
	recorded int
}

// NewStatusTracker returns an empty tracker, ready to hand to
// Options.Status and to a status server.
func NewStatusTracker() *StatusTracker {
	return &StatusTracker{
		outcomes: make(map[string]int),
		drivers:  make(map[string]*driverProgress),
		shards:   make(map[int]*shardProgress),
	}
}

// Begin stamps the campaign identity and the clock. Idempotent so a
// resume loop can reuse one tracker. The engine calls it per Run; a
// fleet coordinator calls it once at startup (with a zero worker count
// that SetWorkers then follows the fleet with).
func (t *StatusTracker) Begin(name, fingerprint string, workers int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.name, t.fingerprint, t.workers = name, fingerprint, workers
	if !t.started {
		t.started = true
		t.start = time.Now()
	}
}

// SetWorkers updates the live worker count — the fleet coordinator's
// connected-worker gauge, where the pool size is not fixed at Begin.
func (t *StatusTracker) SetWorkers(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.workers = n
}

// Plan registers one selected task before any results flow.
func (t *StatusTracker) Plan(driver string, shard int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	t.driverLocked(driver).selected++
	t.shardLocked(shard).planned++
}

// RecordKind distinguishes how a result was obtained.
type RecordKind int

// The three ways a result reaches a store: booted in this run, already
// stored before the run, or quarantined after a harness panic.
const (
	RecordRan RecordKind = iota
	RecordSkip
	RecordPanic
)

// KindOfRecord classifies a result record the way the tracker counts
// it: quarantined panics are distinguished by their provenance field,
// everything else counts as a boot. Skips are a run-local notion (the
// store already held the record when the run started), so streamed
// records never classify as RecordSkip.
func KindOfRecord(r Record) RecordKind {
	if r.HarnessPanic {
		return RecordPanic
	}
	return RecordRan
}

// Record registers one recorded result.
func (t *StatusTracker) Record(driver string, shard int, row string, kind RecordKind) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch kind {
	case RecordRan:
		t.ran++
		t.driverLocked(driver).ran++
	case RecordSkip:
		t.skipped++
	case RecordPanic:
		t.panics++
	}
	t.outcomes[row]++
	t.driverLocked(driver).recorded++
	t.shardLocked(shard).recorded++
}

func (t *StatusTracker) driverLocked(driver string) *driverProgress {
	d, ok := t.drivers[driver]
	if !ok {
		d = &driverProgress{}
		t.drivers[driver] = d
		t.order = append(t.order, driver)
	}
	return d
}

func (t *StatusTracker) shardLocked(shard int) *shardProgress {
	s, ok := t.shards[shard]
	if !ok {
		s = &shardProgress{}
		t.shards[shard] = s
	}
	return s
}

// Snapshot returns a point-in-time copy of the tracker's state with
// derived rates and ETA filled in.
func (t *StatusTracker) Snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Snapshot{
		Name:        t.name,
		Fingerprint: t.fingerprint,
		Live:        true,
		Workers:     t.workers,
		Total:       t.total,
		Ran:         t.ran,
		Skipped:     t.skipped,
		Panics:      t.panics,
		Recorded:    t.ran + t.skipped + t.panics,
	}
	var elapsed float64
	if t.started {
		elapsed = time.Since(t.start).Seconds()
		s.ElapsedSec = elapsed
	}
	if elapsed > 0 && t.ran > 0 {
		s.BootsPerSec = float64(t.ran) / elapsed
		if remaining := t.total - s.Recorded; remaining > 0 {
			s.ETASec = float64(remaining) / s.BootsPerSec
		}
	}
	if len(t.outcomes) > 0 {
		s.Outcomes = make(map[string]int, len(t.outcomes))
		for row, n := range t.outcomes {
			s.Outcomes[row] = n
		}
	}
	for _, name := range t.order {
		d := t.drivers[name]
		ds := DriverStatus{Driver: name, Selected: d.selected, Recorded: d.recorded, Ran: d.ran}
		if elapsed > 0 && d.ran > 0 {
			ds.BootsPerSec = float64(d.ran) / elapsed
		}
		s.Drivers = append(s.Drivers, ds)
	}
	for sh, p := range t.shards {
		s.Shards = append(s.Shards, ShardStatus{Shard: sh, Planned: p.planned, Recorded: p.recorded})
	}
	sort.Slice(s.Shards, func(i, j int) bool { return s.Shards[i].Shard < s.Shards[j].Shard })
	return s
}

// SnapshotFromRecords reconstructs a Snapshot offline from a store's
// records — the `campaign status <store>` path. Total comes from the
// meta records' selection counts (the whole campaign, not any single
// run's shard selection), Recorded from deduplicated results; rates,
// ETA, per-run skip counts and worker counts are unknowable offline
// and left zero.
func SnapshotFromRecords(records []Record) *Snapshot {
	s := &Snapshot{Outcomes: make(map[string]int)}
	type driverAgg struct {
		selected int
		hasMeta  bool
		prog     driverProgress
	}
	drivers := make(map[string]*driverAgg)
	var order []string
	agg := func(driver string) *driverAgg {
		d, ok := drivers[driver]
		if !ok {
			d = &driverAgg{}
			drivers[driver] = d
			order = append(order, driver)
		}
		return d
	}
	shards := make(map[int]*shardProgress)
	seen := make(map[string]bool)
	for _, r := range records {
		switch r.Kind {
		case KindSpec:
			if r.Spec != nil {
				s.Name = r.Spec.Name
			}
			s.Fingerprint = r.Fingerprint
		case KindMeta:
			d := agg(CellLabel(r.Driver, r.Scenario))
			d.selected = r.Selected
			d.hasMeta = true
		case KindResult:
			key := r.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			d := agg(CellLabel(r.Driver, r.Scenario))
			d.prog.recorded++
			if r.HarnessPanic {
				s.Panics++
			} else {
				s.Ran++
				d.prog.ran++
			}
			s.Outcomes[r.Row]++
			sh, ok := shards[r.Shard]
			if !ok {
				sh = &shardProgress{}
				shards[r.Shard] = sh
			}
			sh.recorded++
		}
	}
	s.Recorded = s.Ran + s.Panics
	for _, name := range order {
		d := drivers[name]
		ds := DriverStatus{Driver: name, Recorded: d.prog.recorded, Ran: d.prog.ran}
		if d.hasMeta {
			ds.Selected = d.selected
			s.Total += d.selected
		}
		s.Drivers = append(s.Drivers, ds)
	}
	for sh, p := range shards {
		s.Shards = append(s.Shards, ShardStatus{Shard: sh, Recorded: p.recorded})
	}
	sort.Slice(s.Shards, func(i, j int) bool { return s.Shards[i].Shard < s.Shards[j].Shard })
	if len(s.Outcomes) == 0 {
		s.Outcomes = nil
	}
	return s
}
