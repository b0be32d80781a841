package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
)

// fleetWorkload is the synthetic deterministic workload the fleet tests
// run: driver "alpha" has 40 mutants, "beta" 25, and the outcome row is
// a pure function of the task — so any execution order, partition or
// crash schedule must aggregate identically. Hooks inject chaos.
type fleetWorkload struct {
	mu    sync.Mutex
	boots int
	// onBoot, when non-nil, runs at the start of every boot (under no
	// lock) — the seam chaos tests use to kill or wedge a worker at a
	// chosen moment.
	onBoot func(t campaign.Task, nth int)
}

func (f *fleetWorkload) Expand(spec campaign.Spec) ([]campaign.Meta, []campaign.Task, error) {
	sizes := map[string]int{"alpha": 40, "beta": 25}
	var metas []campaign.Meta
	var tasks []campaign.Task
	for _, d := range spec.Drivers {
		n, ok := sizes[d]
		if !ok {
			return nil, nil, fmt.Errorf("unknown driver %q", d)
		}
		metas = append(metas, campaign.Meta{Driver: d, Sites: n / 2, Enumerated: n, Selected: n})
		for i := 0; i < n; i++ {
			tasks = append(tasks, campaign.Task{Driver: d, Mutant: i})
		}
	}
	return metas, tasks, nil
}

func (f *fleetWorkload) NewWorker(campaign.Spec) (campaign.Worker, error) {
	return &fleetBooter{f: f}, nil
}

type fleetBooter struct{ f *fleetWorkload }

var fleetRows = []string{"Boot", "Crash", "Halt"}

func (w *fleetBooter) Boot(t campaign.Task) (campaign.Outcome, error) {
	w.f.mu.Lock()
	w.f.boots++
	nth := w.f.boots
	hook := w.f.onBoot
	w.f.mu.Unlock()
	if hook != nil {
		hook(t, nth)
	}
	return campaign.Outcome{
		Row:   fleetRows[t.Mutant%len(fleetRows)],
		Site:  t.Mutant / 2,
		Lost:  t.Mutant == 7,
		Steps: int64(100 + t.Mutant),
	}, nil
}

func (w *fleetBooter) Close() {}

func fleetSpec() campaign.Spec {
	return campaign.Spec{Name: "fleet-t", Drivers: []string{"alpha", "beta"}, Seed: 1, Shards: 6}
}

// tablesJSON renders a store's aggregate as canonical JSON — the
// byte-comparison currency of every determinism assertion here.
func tablesJSON(t *testing.T, st campaign.Store) string {
	t.Helper()
	tables, order, err := campaign.Aggregate(st.Records())
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range order {
		if !tables[cell].Complete() {
			t.Fatalf("cell %s incomplete: %d/%d", cell, tables[cell].Results, tables[cell].Selected)
		}
	}
	data, err := json.Marshal(struct {
		Order  []string
		Tables map[string]*campaign.TableData
	}{order, tables})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// serialTablesJSON runs the reference serial campaign.
func serialTablesJSON(t *testing.T, spec campaign.Spec) string {
	t.Helper()
	st := campaign.NewMemStore()
	if _, err := campaign.Run(spec, &fleetWorkload{}, st, campaign.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	return tablesJSON(t, st)
}

// startCoordinator builds and starts a coordinator on a loopback
// listener, cleaning both up with the test.
func startCoordinator(t *testing.T, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co.Start(ln)
	t.Cleanup(func() { co.Close() })
	return co
}

// assertExactlyOnce: the store holds exactly one result record per
// planned task — nothing lost, nothing duplicated — no matter what the
// fleet went through.
func assertExactlyOnce(t *testing.T, spec campaign.Spec, st campaign.Store) {
	t.Helper()
	_, tasks, err := campaign.ExpandPlan(spec, &fleetWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, r := range st.Records() {
		if r.Kind == campaign.KindResult {
			counts[r.Key()]++
		}
	}
	for _, task := range tasks {
		if n := counts[task.Key()]; n != 1 {
			t.Errorf("task %s has %d records, want exactly 1", task.Key(), n)
		}
	}
	if len(counts) != len(tasks) {
		t.Errorf("store holds %d result keys, plan has %d tasks", len(counts), len(tasks))
	}
}

// TestFleetMatchesSerial: a loopback coordinator with three in-process
// workers produces tables byte-identical to the one-worker serial run.
func TestFleetMatchesSerial(t *testing.T) {
	spec := fleetSpec()
	want := serialTablesJSON(t, spec)

	store := campaign.NewMemStore()
	co := startCoordinator(t, CoordinatorConfig{
		Spec: spec, Workload: &fleetWorkload{}, Store: store,
	})

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunWorker(co.Addr(), &fleetWorkload{}, WorkerOptions{
				Name: fmt.Sprintf("w%d", i), Workers: 2, BatchSize: 4, Logf: t.Logf,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := co.Wait(); err != nil {
		t.Fatal(err)
	}
	assertExactlyOnce(t, spec, store)
	if got := tablesJSON(t, store); got != want {
		t.Errorf("fleet tables differ from serial:\n--- serial\n%s\n--- fleet\n%s", want, got)
	}
	fs := co.FleetStatus()
	if fs.ShardsComplete != spec.Shards {
		t.Errorf("ShardsComplete = %d, want %d", fs.ShardsComplete, spec.Shards)
	}
	if fs.StaleRecords != 0 {
		t.Errorf("StaleRecords = %d on a clean run, want 0", fs.StaleRecords)
	}
}

// TestFleetResumesPartialStore: a coordinator restarted over a partial
// store leases only the remaining tasks — the fleet-boundary resume.
func TestFleetResumesPartialStore(t *testing.T) {
	spec := fleetSpec()
	want := serialTablesJSON(t, spec)

	// The "crashed" first campaign: a serial prefix in a file store.
	serial := campaign.NewMemStore()
	if _, err := campaign.Run(spec, &fleetWorkload{}, serial, campaign.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	recs := serial.Records()
	path := filepath.Join(t.TempDir(), "partial.jsonl")
	partial, err := campaign.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prefixResults := 0
	for _, r := range recs[:len(recs)/2] {
		if err := partial.Append(r); err != nil {
			t.Fatal(err)
		}
		if r.Kind == campaign.KindResult {
			prefixResults++
		}
	}
	if err := partial.Close(); err != nil {
		t.Fatal(err)
	}
	if prefixResults == 0 {
		t.Fatal("prefix holds no results; the interruption was not simulated")
	}

	resumed, err := campaign.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	wl := &fleetWorkload{}
	co := startCoordinator(t, CoordinatorConfig{Spec: spec, Workload: wl, Store: resumed})
	sum, err := RunWorker(co.Addr(), wl, WorkerOptions{Name: "resumer", Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Wait(); err != nil {
		t.Fatal(err)
	}
	total := 65 // alpha 40 + beta 25
	if sum.Records != total-prefixResults {
		t.Errorf("resumed fleet streamed %d records, want %d (total %d - %d stored)",
			sum.Records, total-prefixResults, total, prefixResults)
	}
	if wl.boots != total-prefixResults {
		t.Errorf("resumed fleet booted %d mutants, want %d", wl.boots, total-prefixResults)
	}
	assertExactlyOnce(t, spec, resumed)
	if got := tablesJSON(t, resumed); got != want {
		t.Errorf("resumed fleet tables differ from serial:\n--- serial\n%s\n--- fleet\n%s", want, got)
	}
}

// TestFleetSurvivesKilledWorker: a worker killed mid-shard loses its
// lease to a healthy worker; the final store has no lost and no
// duplicated task records and the tables still match serial.
func TestFleetSurvivesKilledWorker(t *testing.T) {
	spec := fleetSpec()
	want := serialTablesJSON(t, spec)

	store := campaign.NewMemStore()
	co := startCoordinator(t, CoordinatorConfig{
		Spec: spec, Workload: &fleetWorkload{}, Store: store,
		LeaseTTL: 500 * time.Millisecond,
	})

	// The victim dies on its 5th boot — mid-shard, with records already
	// streamed (BatchSize 1) and more tasks still pending.
	interrupt := make(chan struct{})
	var once sync.Once
	victim := &fleetWorkload{onBoot: func(_ campaign.Task, nth int) {
		if nth >= 5 {
			once.Do(func() { close(interrupt) })
		}
	}}
	var wg sync.WaitGroup
	wg.Add(1)
	var victimErr error
	go func() {
		defer wg.Done()
		_, victimErr = RunWorker(co.Addr(), victim, WorkerOptions{
			Name: "victim", Workers: 1, BatchSize: 1, Interrupt: interrupt, Logf: t.Logf,
		})
	}()

	// The survivor joins after the victim is already dying and finishes
	// everything, including the re-leased shard.
	<-interrupt
	wg.Wait()
	if !errors.Is(victimErr, campaign.ErrInterrupted) {
		t.Fatalf("victim returned %v, want ErrInterrupted", victimErr)
	}
	if _, err := RunWorker(co.Addr(), &fleetWorkload{}, WorkerOptions{
		Name: "survivor", Workers: 2, Logf: t.Logf,
	}); err != nil {
		t.Fatal(err)
	}
	if err := co.Wait(); err != nil {
		t.Fatal(err)
	}
	assertExactlyOnce(t, spec, store)
	if got := tablesJSON(t, store); got != want {
		t.Errorf("post-kill tables differ from serial:\n--- serial\n%s\n--- fleet\n%s", want, got)
	}
	if fs := co.FleetStatus(); fs.Releases == 0 {
		t.Errorf("no lease was released; the kill did not exercise re-leasing (status %+v)", fs)
	}
}

// TestFleetReleasesStalledWorker: a worker that stops heartbeating
// while wedged inside a boot loses its lease to the janitor; a healthy
// worker re-leases the shard and the campaign completes exactly-once.
// When the wedged worker finally wakes and streams its stale records,
// the coordinator drops them by key instead of duplicating tasks.
func TestFleetReleasesStalledWorker(t *testing.T) {
	spec := fleetSpec()
	want := serialTablesJSON(t, spec)

	store := campaign.NewMemStore()
	co := startCoordinator(t, CoordinatorConfig{
		Spec: spec, Workload: &fleetWorkload{}, Store: store,
		LeaseTTL: 200 * time.Millisecond,
	})

	// The sloth takes a lease, then wedges on its first boot with
	// heartbeats suppressed — from the coordinator's side it has gone
	// silent while holding a lease.
	wedge := make(chan struct{})
	wedged := make(chan struct{})
	var wedgeOnce sync.Once
	sloth := &fleetWorkload{onBoot: func(campaign.Task, int) {
		wedgeOnce.Do(func() { close(wedged) })
		<-wedge
	}}
	var wg sync.WaitGroup
	wg.Add(1)
	var slothSum *WorkerSummary
	var slothErr error
	go func() {
		defer wg.Done()
		slothSum, slothErr = RunWorker(co.Addr(), sloth, WorkerOptions{
			Name: "sloth", Workers: 1, BatchSize: 1, Logf: t.Logf,
			suppressHeartbeats: true,
		})
	}()
	<-wedged

	// The healthy worker completes the whole campaign, including the
	// sloth's expired shard.
	if _, err := RunWorker(co.Addr(), &fleetWorkload{}, WorkerOptions{
		Name: "healthy", Workers: 2, Logf: t.Logf,
	}); err != nil {
		t.Fatal(err)
	}
	if err := co.Wait(); err != nil {
		t.Fatal(err)
	}
	fs := co.FleetStatus()
	if fs.Releases == 0 {
		t.Errorf("no lease expired; the stall did not exercise the janitor (status %+v)", fs)
	}

	// Wake the sloth: it finishes its shard against a complete store,
	// streams records the coordinator already has, and drains cleanly.
	close(wedge)
	wg.Wait()
	if slothErr != nil {
		t.Fatalf("woken sloth returned %v, want clean drain", slothErr)
	}
	if slothSum == nil || slothSum.Records == 0 {
		t.Fatalf("sloth streamed no records (%+v); stale-record dedup was not exercised", slothSum)
	}
	if fs := co.FleetStatus(); fs.StaleRecords == 0 {
		t.Errorf("StaleRecords = 0 after a stale worker streamed; dedup untested (status %+v)", fs)
	}
	assertExactlyOnce(t, spec, store)
	if got := tablesJSON(t, store); got != want {
		t.Errorf("post-stall tables differ from serial:\n--- serial\n%s\n--- fleet\n%s", want, got)
	}
}

// dialRaw opens a raw client connection to the coordinator for
// protocol-hardening tests.
func dialRaw(t *testing.T, co *Coordinator) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

// TestCoordinatorRejectsBadHandshakes: every handshake offense comes
// back as a reject frame naming the offense (and the offender), and the
// coordinator survives all of them to serve a real worker afterwards.
func TestCoordinatorRejectsBadHandshakes(t *testing.T) {
	spec := fleetSpec()
	store := campaign.NewMemStore()
	co := startCoordinator(t, CoordinatorConfig{
		Spec: spec, Workload: &fleetWorkload{}, Store: store,
	})

	expectReject := func(t *testing.T, nc net.Conn, wants ...string) {
		t.Helper()
		m, err := ReadMsg(nc)
		if err != nil {
			t.Fatalf("no reject frame came back: %v", err)
		}
		if m.T != MsgReject {
			t.Fatalf("got %q frame, want %q", m.T, MsgReject)
		}
		for _, want := range wants {
			if !strings.Contains(m.Error, want) {
				t.Errorf("reject %q does not name %q", m.Error, want)
			}
		}
	}

	t.Run("first frame not hello", func(t *testing.T) {
		nc := dialRaw(t, co)
		if err := WriteMsg(nc, Msg{T: MsgLease}); err != nil {
			t.Fatal(err)
		}
		expectReject(t, nc, "handshake violation", `"lease"`)
	})
	t.Run("wrong protocol version", func(t *testing.T) {
		nc := dialRaw(t, co)
		if err := WriteMsg(nc, Msg{T: MsgHello, Name: "old-worker", Proto: Proto + 1}); err != nil {
			t.Fatal(err)
		}
		expectReject(t, nc, "old-worker", "protocol")
	})
	t.Run("fingerprint mismatch names the worker", func(t *testing.T) {
		nc := dialRaw(t, co)
		if err := WriteMsg(nc, Msg{T: MsgHello, Name: "wrong-campaign", Proto: Proto,
			Fingerprint: "deadbeefdeadbeef"}); err != nil {
			t.Fatal(err)
		}
		expectReject(t, nc, "wrong-campaign", "deadbeefdeadbeef", spec.Fingerprint())
	})
	t.Run("garbage bytes", func(t *testing.T) {
		nc := dialRaw(t, co)
		if _, err := nc.Write(append([]byte{0, 0, 0, 9}, []byte("not json!")...)); err != nil {
			t.Fatal(err)
		}
		expectReject(t, nc, "unparseable")
	})
	t.Run("oversized frame announcement", func(t *testing.T) {
		nc := dialRaw(t, co)
		if _, err := nc.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
			t.Fatal(err)
		}
		expectReject(t, nc, "oversized")
	})
	t.Run("unknown message type", func(t *testing.T) {
		nc := dialRaw(t, co)
		payload := []byte(`{"t":"gimme"}`)
		if _, err := nc.Write(append([]byte{0, 0, 0, byte(len(payload))}, payload...)); err != nil {
			t.Fatal(err)
		}
		expectReject(t, nc, `unknown message type "gimme"`)
	})

	// RunWorker's own reject path: the caller sees the named refusal.
	_, err := RunWorker(co.Addr(), &fleetWorkload{}, WorkerOptions{
		Name: "stale-build", Fingerprint: "feedfacefeedface", Logf: t.Logf,
	})
	if err == nil || !strings.Contains(err.Error(), "stale-build") ||
		!strings.Contains(err.Error(), "feedfacefeedface") {
		t.Errorf("rejected worker error %v does not name the worker and fingerprint", err)
	}

	// After six offenses and a rejection the coordinator still serves a
	// real worker to completion.
	if _, err := RunWorker(co.Addr(), &fleetWorkload{}, WorkerOptions{
		Name: "honest", Workers: 2, Logf: t.Logf,
	}); err != nil {
		t.Fatal(err)
	}
	if err := co.Wait(); err != nil {
		t.Fatal(err)
	}
	fs := co.FleetStatus()
	if fs.RejectedFrames < 6 {
		t.Errorf("RejectedFrames = %d, want >= 6", fs.RejectedFrames)
	}
	assertExactlyOnce(t, spec, store)
}

// TestCoordinatorDropsMidSessionOffender: a worker that completes the
// handshake and then sends garbage is dropped (its lease released)
// without taking the coordinator down.
func TestCoordinatorDropsMidSessionOffender(t *testing.T) {
	spec := fleetSpec()
	store := campaign.NewMemStore()
	co := startCoordinator(t, CoordinatorConfig{
		Spec: spec, Workload: &fleetWorkload{}, Store: store,
	})

	nc := dialRaw(t, co)
	if err := WriteMsg(nc, Msg{T: MsgHello, Name: "offender", Proto: Proto}); err != nil {
		t.Fatal(err)
	}
	if m, err := ReadMsg(nc); err != nil || m.T != MsgWelcome {
		t.Fatalf("handshake: %v %+v", err, m)
	}
	// Take a lease, then send a torn frame instead of records.
	if err := WriteMsg(nc, Msg{T: MsgLease}); err != nil {
		t.Fatal(err)
	}
	if m, err := ReadMsg(nc); err != nil || m.T != MsgGrant {
		t.Fatalf("lease: %v %+v", err, m)
	}
	if _, err := nc.Write([]byte{0, 0, 1, 0, 'x'}); err != nil {
		t.Fatal(err)
	}
	nc.Close()

	// The coordinator released the offender's lease; an honest worker
	// finishes the whole campaign.
	if _, err := RunWorker(co.Addr(), &fleetWorkload{}, WorkerOptions{
		Name: "honest", Workers: 2, Logf: t.Logf,
	}); err != nil {
		t.Fatal(err)
	}
	if err := co.Wait(); err != nil {
		t.Fatal(err)
	}
	assertExactlyOnce(t, spec, store)
	fs := co.FleetStatus()
	if fs.Releases == 0 {
		t.Errorf("offender's lease was never released (status %+v)", fs)
	}
}

// TestCoordinatorOverCompleteStore: serving an already-finished store
// is valid — Wait returns immediately and workers drain on arrival.
func TestCoordinatorOverCompleteStore(t *testing.T) {
	spec := fleetSpec()
	store := campaign.NewMemStore()
	if _, err := campaign.Run(spec, &fleetWorkload{}, store, campaign.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	co := startCoordinator(t, CoordinatorConfig{
		Spec: spec, Workload: &fleetWorkload{}, Store: store,
	})
	if err := co.Wait(); err != nil {
		t.Fatalf("Wait over a complete store: %v", err)
	}
	wl := &fleetWorkload{}
	sum, err := RunWorker(co.Addr(), wl, WorkerOptions{Name: "latecomer", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Shards != 0 || sum.Records != 0 || wl.boots != 0 {
		t.Errorf("latecomer did work on a complete campaign: %+v, %d boots", sum, wl.boots)
	}
}

// TestCoordinatorRejectsForeignStore: a store whose spec record carries
// a different fingerprint is refused at construction, with campaign.
// Reconcile's error under the fleet's prefix, naming both fingerprints.
func TestCoordinatorRejectsForeignStore(t *testing.T) {
	other := fleetSpec()
	other.Seed = 99
	store := campaign.NewMemStore()
	if err := store.Append(campaign.SpecRecord(other)); err != nil {
		t.Fatal(err)
	}
	_, err := NewCoordinator(CoordinatorConfig{
		Spec: fleetSpec(), Workload: &fleetWorkload{}, Store: store,
	})
	if err == nil {
		t.Fatal("foreign store accepted")
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "fleet: ") || strings.HasPrefix(msg, "fleet: campaign:") ||
		!strings.Contains(msg, other.Fingerprint()) || !strings.Contains(msg, fleetSpec().Fingerprint()) {
		t.Errorf("err = %q, want one prefixed fleet: naming %s and %s",
			msg, other.Fingerprint(), fleetSpec().Fingerprint())
	}
}

// TestFleetStatusSnapshot: the tracker the coordinator feeds renders a
// fleet-aware snapshot — the /status surface `campaign status <addr>`
// shows.
func TestFleetStatusSnapshot(t *testing.T) {
	spec := fleetSpec()
	tracker := campaign.NewStatusTracker()
	store := campaign.NewMemStore()
	co := startCoordinator(t, CoordinatorConfig{
		Spec: spec, Workload: &fleetWorkload{}, Store: store, Status: tracker,
	})
	if _, err := RunWorker(co.Addr(), &fleetWorkload{}, WorkerOptions{
		Name: "w0", Workers: 2, Logf: t.Logf,
	}); err != nil {
		t.Fatal(err)
	}
	if err := co.Wait(); err != nil {
		t.Fatal(err)
	}
	snap := tracker.Snapshot()
	if snap.Recorded != 65 || snap.Total != 65 {
		t.Errorf("snapshot %d/%d recorded, want 65/65", snap.Recorded, snap.Total)
	}
	if snap.Name != spec.Normalized().Name || snap.Fingerprint != spec.Fingerprint() {
		t.Errorf("snapshot identity %q/%q, want %q/%q",
			snap.Name, snap.Fingerprint, spec.Normalized().Name, spec.Fingerprint())
	}
	if len(snap.Drivers) != 2 || len(snap.Shards) != spec.Shards {
		t.Errorf("snapshot breakdowns: %d drivers, %d shards; want 2 and %d",
			len(snap.Drivers), len(snap.Shards), spec.Shards)
	}
	fs := co.FleetStatus()
	if fs.ShardsComplete != spec.Shards || fs.Leases == 0 {
		t.Errorf("fleet status %+v: want all %d shards complete and leases counted", fs, spec.Shards)
	}
}
