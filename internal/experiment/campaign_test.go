package experiment

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/campaign"
	"repro/internal/campaign/fleet"
	"repro/internal/cdriver/ctoken"
	"repro/internal/drivers"
)

// assertCampaignDeterminism runs the determinism protocol every
// workload's campaign must satisfy: the same spec and seed aggregate
// to byte-identical tables whether the campaign runs serially, sharded
// into separate stores and merged, killed halfway and resumed from the
// JSONL store, or executed on the tree-walking oracle instead of the
// block backend. The serial run's aggregated tables are returned
// for workload-specific assertions.
func assertCampaignDeterminism(t *testing.T, spec campaign.Spec) map[string]*campaign.TableData {
	t.Helper()
	wl := NewWorkload()

	render := func(st campaign.Store) (string, map[string]*campaign.TableData) {
		t.Helper()
		tables, order, err := campaign.Aggregate(st.Records())
		if err != nil {
			t.Fatal(err)
		}
		var text string
		for _, d := range order {
			if !tables[d].Complete() {
				t.Fatalf("%s incomplete: %d/%d", d, tables[d].Results, tables[d].Selected)
			}
			text += FormatDriverTable(tables[d], d)
		}
		return text, tables
	}

	// Serial reference run (one worker, one shard selection: everything).
	serial := campaign.NewMemStore()
	if _, err := campaign.Run(spec, wl, serial, campaign.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	want, tables := render(serial)

	// Sharded: each shard runs into its own file store; merge and compare.
	dir := t.TempDir()
	var stores []campaign.Store
	for sh := 0; sh < spec.Shards; sh++ {
		st, err := campaign.OpenFile(filepath.Join(dir, "shard"+string(rune('0'+sh))+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := campaign.Run(spec, wl, st, campaign.Options{Shards: []int{sh}}); err != nil {
			t.Fatal(err)
		}
		stores = append(stores, st)
	}
	merged, err := campaign.OpenFile(filepath.Join(dir, "merged.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	if err := campaign.Merge(merged, stores...); err != nil {
		t.Fatal(err)
	}
	if got, _ := render(merged); got != want {
		t.Errorf("sharded+merged tables differ from serial:\n--- serial\n%s\n--- sharded\n%s", want, got)
	}

	// Interrupted: keep only a prefix of the serial store (as a kill mid-
	// run would), resume, and compare.
	interrupted, err := campaign.OpenFile(filepath.Join(dir, "interrupted.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer interrupted.Close()
	recs := serial.Records()
	for _, r := range recs[:len(recs)/2] {
		if err := interrupted.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := campaign.Run(spec, wl, interrupted, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ran == 0 {
		t.Fatal("resume booted nothing; the interruption was not simulated")
	}
	if got, _ := render(interrupted); got != want {
		t.Errorf("resumed tables differ from serial:\n--- serial\n%s\n--- resumed\n%s", want, got)
	}

	// The tree-walking oracle must aggregate to the identical text.
	oracle := spec
	oracle.Backend = "interp"
	ost := campaign.NewMemStore()
	if _, err := campaign.Run(oracle, wl, ost, campaign.Options{}); err != nil {
		t.Fatal(err)
	}
	if got, _ := render(ost); got != want {
		t.Errorf("interp-backend tables differ from compiled:\n--- compiled\n%s\n--- interp\n%s", want, got)
	}

	// Fleet: a loopback coordinator leasing shards to three in-process
	// workers must converge to the identical text. Shard count is
	// fingerprint-excluded, so the fleet repartitions.
	fleetSpec := spec
	if fleetSpec.Shards < 4 {
		fleetSpec.Shards = 4
	}
	fstore := campaign.NewMemStore()
	co, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Spec: fleetSpec, Workload: wl, Store: fstore,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co.Start(ln)
	defer co.Close()
	var wg sync.WaitGroup
	workerErrs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := fleet.WorkerOptions{Name: fmt.Sprintf("det-w%d", i), Workers: 1}
			_, workerErrs[i] = fleet.RunWorker(co.Addr(), NewWorkload(), opts)
		}(i)
	}
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("fleet worker %d: %v", i, werr)
		}
	}
	if err := co.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, _ := render(fstore); got != want {
		t.Errorf("fleet tables differ from serial:\n--- serial\n%s\n--- fleet\n%s", want, got)
	}
	return tables
}

// TestCampaignDeterminism runs the shared protocol over a small,
// seeded sample of the C IDE driver's mutants, sharded four ways.
func TestCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign determinism test is not short")
	}
	spec := campaign.Spec{Drivers: []string{"ide_c"}, SamplePct: 2, Seed: 7}
	spec.Name = "determinism"
	spec.Shards = 4
	assertCampaignDeterminism(t, spec)
}

// TestEveryMutantStreamIsUnique: across every embedded driver's real
// enumeration, C and CDevil alike, no two mutants replace the same token
// with the same text. Every mutant shares the pristine stream and
// differs in exactly one token, so this is the invariant that makes each
// mutant's program distinct and every boot necessary: an operator that
// breaks it would boot one program twice and count it twice in the
// tables.
func TestEveryMutantStreamIsUnique(t *testing.T) {
	type edit struct {
		index int
		kind  ctoken.Kind
		lit   string
	}
	wl := NewWorkload().(*workload)
	kinds := make(map[bool]int) // drivers seen, keyed by CDevil-ness
	for _, driver := range drivers.Names() {
		p, err := wl.plan(driver)
		if err != nil {
			t.Fatal(err)
		}
		kinds[p.src.Devil]++
		seen := make(map[edit]int, len(p.res.Mutants))
		for _, m := range p.res.Mutants {
			e := edit{m.TokenIndex, m.Replacement.Kind, m.Replacement.Lit}
			if prev, dup := seen[e]; dup {
				t.Errorf("%s: mutants %d and %d both replace token %d with %q",
					driver, prev, m.ID, m.TokenIndex, m.Replacement.Lit)
				continue
			}
			seen[e] = m.ID
		}
		if len(seen) == 0 {
			t.Errorf("%s: empty enumeration", driver)
		}
	}
	if kinds[false] == 0 || kinds[true] == 0 {
		t.Errorf("enumerated %d C and %d CDevil drivers, want both kinds", kinds[false], kinds[true])
	}
}

// TestMachineReuseMatchesFreshBoots: booting through a Reset machine
// must classify identically to booting on a fresh machine — the
// machine-reuse fast path may not leak state between boots.
func TestMachineReuseMatchesFreshBoots(t *testing.T) {
	wl := NewWorkload().(*workload)
	p, err := wl.plan("ide_c")
	if err != nil {
		t.Fatal(err)
	}
	selected := selectMutants(len(p.res.Mutants), 1, 3)
	m, err := NewRig("ide")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range selected {
		mut := p.res.Mutants[id]
		input := BootInput{Tokens: p.res.Apply(mut), Budget: ExperimentBudget}
		fresh, err := BootDriver("ide_c", input)
		if err != nil {
			t.Fatalf("mutant %d: fresh boot: %v", id, err)
		}
		m.Reset()
		reused, err := m.Boot(input)
		if err != nil {
			t.Fatalf("mutant %d: reused boot: %v", id, err)
		}
		site := p.res.Sites[mut.SiteIndex]
		if classifyRow(fresh, site) != classifyRow(reused, site) {
			t.Errorf("mutant %d: fresh=%s reused=%s", id,
				classifyRow(fresh, site), classifyRow(reused, site))
		}
		if fresh.PartitionTableLost != reused.PartitionTableLost {
			t.Errorf("mutant %d: partition-loss divergence", id)
		}
	}
}

// TestReusedRigPoolsConsole: across boots on one Reset rig,
// BootResult.Console aliases one kernel-owned array — the same backing
// pointer every boot — rather than a per-boot copy. The first boot may
// still grow the buffer, so the anchor is taken from boot two.
func TestReusedRigPoolsConsole(t *testing.T) {
	src, err := drivers.Load("ide_devil")
	if err != nil {
		t.Fatal(err)
	}
	toks, err := ParseDriver(src.Text)
	if err != nil {
		t.Fatal(err)
	}
	input := BootInput{Tokens: toks, Devil: true, Budget: ExperimentBudget}
	r, err := NewRig("ide")
	if err != nil {
		t.Fatal(err)
	}
	var anchor *string
	for i := 0; i < 4; i++ {
		r.Reset()
		res, err := r.Boot(input)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Console) == 0 {
			t.Fatalf("boot %d printed nothing; test premise broken", i)
		}
		if i == 0 {
			continue
		}
		if p := unsafe.SliceData(res.Console); anchor == nil {
			anchor = p
		} else if p != anchor {
			t.Fatalf("boot %d: console buffer reallocated between reused boots (pooling regressed)", i)
		}
	}
}

// TestMachineResetRestoresCleanBoot: after a damaging boot, Reset must
// return the machine to a state where the clean driver boots cleanly.
func TestMachineResetRestoresCleanBoot(t *testing.T) {
	res := assertResetRestoresCleanBoot(t, "ide_c", func(m *Rig) {
		// Scribble over the whole image, then Reset.
		for _, s := range m.Dev.(*ideDev).Image.Sectors {
			for i := range s {
				s[i] = 0xaa
			}
		}
	}, nil)
	if len(res.DamagedSectors) != 0 || res.PartitionTableLost {
		t.Errorf("audit found damage after Reset: %v", res.DamagedSectors)
	}
}

// TestCampaignMatrixDeterminism runs the shared determinism protocol
// over a scenario matrix: fault-injected cells must aggregate to
// byte-identical tables across serial, sharded+merged, resumed and
// interp-backend runs, because each boot's fault pattern is seeded from
// the task identity rather than global randomness.
func TestCampaignMatrixDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign matrix determinism test is not short")
	}
	spec := campaign.Spec{Drivers: []string{"busmouse_devil"}, SamplePct: 10, Seed: 11}
	spec.Name = "matrix-determinism"
	spec.Shards = 4
	spec.Scenarios = []string{"pristine", "flaky-bus:10", "timing:16"}
	tables := assertCampaignDeterminism(t, spec)
	for _, cell := range []string{"busmouse_devil", "busmouse_devil@flaky-bus:10", "busmouse_devil@timing:16"} {
		if tables[cell] == nil {
			t.Errorf("matrix run produced no %s cell", cell)
		}
	}
}

// TestCampaignMatrixCrashResume is the crash story end to end: a
// fault-injected matrix campaign with a small FlushEvery is killed
// mid-cell — the store is abandoned unclosed with a torn trailing line,
// exactly what SIGKILL leaves behind — and the resumed run must finish
// every cell with tables byte-identical to an uninterrupted campaign.
func TestCampaignMatrixCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign crash-resume test is not short")
	}
	spec := campaign.Spec{Drivers: []string{"busmouse_devil"}, SamplePct: 10, Seed: 11}
	spec.Name = "matrix-crash"
	spec.Scenarios = []string{"pristine", "flaky-bus:10"}
	spec.FlushEvery = 3
	wl := NewWorkload()

	render := func(st campaign.Store) string {
		t.Helper()
		tables, order, err := campaign.Aggregate(st.Records())
		if err != nil {
			t.Fatal(err)
		}
		var text string
		for _, d := range order {
			if !tables[d].Complete() {
				t.Fatalf("cell %s incomplete after resume: %d/%d", d, tables[d].Results, tables[d].Selected)
			}
			text += FormatDriverTable(tables[d], d)
		}
		return text
	}

	// Uninterrupted reference.
	reference := campaign.NewMemStore()
	if _, err := campaign.Run(spec, wl, reference, campaign.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	want := render(reference)

	// Kill mid-second-cell: keep a record prefix that cuts inside the
	// flaky-bus cell, so resume must both finish that cell and notice the
	// pristine cell is already complete.
	recs := reference.Records()
	firstFlaky := -1
	for i, r := range recs {
		if r.Kind == campaign.KindResult && r.Scenario != "" {
			firstFlaky = i
			break
		}
	}
	if firstFlaky < 0 || firstFlaky+2 >= len(recs) {
		t.Fatalf("sample too small to cut mid-cell: %d records, first scenario result at %d",
			len(recs), firstFlaky)
	}
	path := filepath.Join(t.TempDir(), "crash.jsonl")
	torn, err := campaign.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[:firstFlaky+2] {
		if err := torn.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := torn.Close(); err != nil {
		t.Fatal(err)
	}
	// The SIGKILL artefact: a half-written record with no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"result","driver":"busmouse_de`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := campaign.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	sum, err := campaign.Run(spec, wl, resumed, campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ran == 0 || sum.Skipped == 0 {
		t.Fatalf("resume summary %+v: the crash cut must leave both done and pending work", sum)
	}
	if got := render(resumed); got != want {
		t.Errorf("resumed matrix tables differ from uninterrupted run:\n--- want\n%s\n--- got\n%s", want, got)
	}
}
