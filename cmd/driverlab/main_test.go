package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/drivers"
	"repro/internal/experiment"
	"repro/internal/obs"
)

// TestFastPaths exercises the non-mutation paths of the CLI (the mutation
// tables are covered by the experiment package and the benchmarks).
func TestFastPaths(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "1"},
		{"-figure", "1"},
		{"-figure", "3"},
		{"-figure", "4"},
	} {
		if err := run(args); err != nil {
			t.Errorf("driverlab %v: %v", args, err)
		}
	}
}

// TestAdvertisedTables runs every value the -table help text promises,
// and the ablations, with a minimal sample so the mutation tables stay
// affordable.
func TestAdvertisedTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full table sweep is not short")
	}
	for _, args := range [][]string{
		{"-table", "1"},
		{"-table", "2"},
		{"-table", "3", "-sample", "1"},
		{"-table", "4", "-sample", "1"},
		{"-table", "5", "-sample", "2"},
		{"-table", "6", "-sample", "1"},
		{"-table", "7", "-sample", "1"},
		{"-table", "8", "-sample", "2"},
		{"-table", "all", "-sample", "1"},
		{"-ablation", "-sample", "1"},
	} {
		if err := run(args); err != nil {
			t.Errorf("driverlab %v: %v", args, err)
		}
	}
}

// TestUsageEnumeratesSurface: the top-level -h banner must name the
// campaign and fleet subcommands, every embedded driver, and both
// -backend values — the CLI's whole surface, not just the flag list —
// and asking for help is success, not an error.
func TestUsageEnumeratesSurface(t *testing.T) {
	usage := usageText()
	wants := []string{
		"campaign", "run", "resume", "merge", "report", "status",
		"metrics", "block", "interp",
		"-status-addr", "/metrics", "/status",
		"scenarios", "-scenario",
		"serve", "worker", "-connect",
	}
	wants = append(wants, drivers.Names()...)
	// Every scenario of the table must be named in the usage text, so the
	// matrix axis is discoverable without reading the source.
	for _, sc := range experiment.Scenarios() {
		wants = append(wants, sc.Name)
	}
	// Every registered extension pair must appear in the table numbering.
	for _, d := range experiment.Workloads() {
		if d.Name != "ide" {
			wants = append(wants, d.Name+" extension)")
		}
	}
	for _, want := range wants {
		if !strings.Contains(usage, want) {
			t.Errorf("usage text does not mention %q", want)
		}
	}
	for _, args := range [][]string{
		{"-h"},
		{"campaign", "run", "-h"},
		{"campaign", "status", "-h"},
		{"scenarios", "-h"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v) = %v, want nil (help is not an error)", args, err)
		}
	}
}

// TestMetricsCLI: the metrics subcommand lists every registered family
// and rejects arguments.
func TestMetricsCLI(t *testing.T) {
	if err := run([]string{"metrics"}); err != nil {
		t.Errorf("metrics: %v", err)
	}
	if err := run([]string{"metrics", "extra"}); err == nil {
		t.Error("metrics with arguments accepted")
	}
}

// TestUnknownCommand: a leftover positional argument — a mistyped or
// removed subcommand — fails before any table runs, instead of falling
// through to the default of regenerating every table.
func TestUnknownCommand(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"bench"}, "bench"},
		{[]string{"frobnicate"}, "frobnicate"},
		{[]string{"bench", "-sample", "5"}, "bench"},
		{[]string{"-table", "1", "extra"}, "extra"},
	} {
		var err error
		if out := captureStdout(t, func() { err = run(tc.args) }); out != "" {
			t.Errorf("driverlab %v printed %q, want no table", tc.args, out)
		}
		if want := fmt.Sprintf("unknown command %q", tc.want); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("driverlab %v: err = %v, want %s", tc.args, err, want)
		}
	}
}

// captureStdout runs f with os.Stdout redirected to a temporary file
// and returns what f printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	defer func() { os.Stdout = saved }()
	f()
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestExecFlagValidation: execution flags reject the values the engine
// would otherwise ignore (a sub-millisecond boot deadline truncates to
// no deadline at all) or misread (negative counts), on every command
// that takes them, before any store is written or any address dialled.
func TestExecFlagValidation(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "s.jsonl")
	run0 := []string{"campaign", "run", "-store", store, "-drivers", "busmouse_c", "-sample", "3", "-quiet"}
	resume := []string{"campaign", "resume", "-store", store, "-quiet"}
	serve := []string{"serve", "-store", store, "-addr", "127.0.0.1:0", "-quiet"}
	worker := []string{"worker", "-connect", "127.0.0.1:1", "-quiet"}
	for _, tc := range []struct {
		base []string
		flag []string
		want string
	}{
		{run0, []string{"-boot-timeout", "500us"}, "-boot-timeout 500µs"},
		{run0, []string{"-boot-timeout", "1500us"}, "whole number of milliseconds"},
		{run0, []string{"-boot-timeout", "-1s"}, "-boot-timeout -1s"},
		{run0, []string{"-workers", "-3"}, "-workers -3"},
		{run0, []string{"-shards", "0"}, "-shards 0"},
		{run0, []string{"-shards", "-3"}, "-shards -3"},
		{resume, []string{"-boot-timeout", "500us"}, "-boot-timeout 500µs"},
		{resume, []string{"-workers", "-3"}, "-workers -3"},
		{serve, []string{"-shards", "0"}, "-shards 0"},
		{worker, []string{"-workers", "-3"}, "-workers -3"},
	} {
		args := append(append([]string(nil), tc.base...), tc.flag...)
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("driverlab %v: err = %v, want %q", args, err, tc.want)
		}
		if _, serr := os.Stat(store); !os.IsNotExist(serr) {
			t.Fatalf("driverlab %v created the store (stat err %v)", args, serr)
		}
	}
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-figure", "99"}); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run([]string{"-table", "9"}); err == nil {
		t.Error("table past the registered extensions accepted")
	}
	if err := run([]string{"-table", "busmouse"}); err == nil {
		t.Error("non-numeric table accepted")
	}
	if err := run([]string{"-table", "3", "-backend", "jit"}); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestCampaignCLI drives the full campaign lifecycle through the
// subcommand surface: sharded runs into separate stores, merge, report,
// and an idempotent resume.
func TestCampaignCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign CLI test is not short")
	}
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	m := filepath.Join(dir, "m.jsonl")
	base := []string{"-drivers", "busmouse_c", "-sample", "10", "-seed", "11",
		"-shards", "2", "-quiet"}

	if err := run(append([]string{"campaign", "run", "-store", a, "-shard", "0"}, base...)); err != nil {
		t.Fatalf("campaign run shard 0: %v", err)
	}
	if err := run(append([]string{"campaign", "run", "-store", b, "-shard", "1"}, base...)); err != nil {
		t.Fatalf("campaign run shard 1: %v", err)
	}
	if err := run([]string{"campaign", "merge", "-out", m, a, b}); err != nil {
		t.Fatalf("campaign merge: %v", err)
	}
	if err := run([]string{"campaign", "report", "-store", m}); err != nil {
		t.Fatalf("campaign report: %v", err)
	}
	if err := run([]string{"campaign", "resume", "-store", m, "-quiet"}); err != nil {
		t.Fatalf("campaign resume: %v", err)
	}
	// The offline status view reconstructs the snapshot from the same
	// store, through the positional and the flag spelling alike.
	if err := run([]string{"campaign", "status", m}); err != nil {
		t.Fatalf("campaign status <store>: %v", err)
	}
	if err := run([]string{"campaign", "status", "-store", m}); err != nil {
		t.Fatalf("campaign status -store: %v", err)
	}
	snap := func(path string) *campaign.Snapshot {
		st, err := campaign.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		return campaign.SnapshotFromRecords(st.Records())
	}
	s := snap(m)
	if s.Recorded == 0 || s.Recorded != s.Ran || len(s.Outcomes) == 0 {
		t.Errorf("offline snapshot inconsistent: %+v", s)
	}
	if s.Total == 0 || s.Recorded > s.Total {
		t.Errorf("offline snapshot total/recorded inconsistent: %d/%d", s.Recorded, s.Total)
	}
}

// TestCampaignStatusLive serves a snapshot over the obs endpoint and
// drives the live status path — URL, -addr, and bare host:port forms —
// plus the flag-validation errors.
func TestCampaignStatusLive(t *testing.T) {
	want := campaign.Snapshot{
		Name: "wire", Live: true, Workers: 2, ElapsedSec: 3.5,
		Total: 10, Recorded: 6, Ran: 6,
		BootsPerSec: 1.5, ETASec: 2.7,
		Outcomes: map[string]int{"Boot": 5, "Crash": 1},
		Drivers:  []campaign.DriverStatus{{Driver: "ide_c", Selected: 10, Recorded: 6, Ran: 5}},
		Shards:   []campaign.ShardStatus{{Shard: 0, Planned: 10, Recorded: 6}},
	}
	srv, err := obs.Serve("127.0.0.1:0", obs.New(), func() any { return want })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	addr := strings.TrimPrefix(srv.URL, "http://")
	got, err := fetchSnapshot(addr)
	if err != nil {
		t.Fatalf("fetchSnapshot(%s): %v", addr, err)
	}
	if !got.Live || got.Name != "wire" || got.Recorded != 6 || got.Outcomes["Boot"] != 5 {
		t.Errorf("fetched snapshot = %+v, want the served one", got)
	}
	for _, args := range [][]string{
		{"campaign", "status", srv.URL},
		{"campaign", "status", addr},
		{"campaign", "status", "-addr", addr},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v) = %v", args, err)
		}
	}
	if err := run([]string{"campaign", "status"}); err == nil {
		t.Error("status without a target accepted")
	}
	if err := run([]string{"campaign", "status", "-store", "x", "-addr", "y"}); err == nil {
		t.Error("status with both -store and -addr accepted")
	}
	if err := run([]string{"campaign", "status", "-addr", addr, "extra"}); err == nil {
		t.Error("status with flags plus positional accepted")
	}
	if err := run([]string{"campaign", "status", "127.0.0.1:1"}); err == nil {
		t.Error("status against a dead endpoint accepted")
	}
}

// TestStatusFormatting pins the snapshot renderers: one source of
// truth for /status, the status view and the progress line, and the
// progress line must clamp to the terminal width instead of wrapping.
func TestStatusFormatting(t *testing.T) {
	s := campaign.Snapshot{
		Name: "fmt", Live: true, Workers: 4, ElapsedSec: 61,
		Total: 200, Recorded: 50, Ran: 40, Skipped: 10,
		BootsPerSec: 12.5, ETASec: 12,
		Outcomes: map[string]int{"Boot": 30, "Crash": 10, "Halt": 10},
		Drivers:  []campaign.DriverStatus{{Driver: "ide_c", Selected: 200, Recorded: 50, Ran: 40, BootsPerSec: 12.5}},
		Shards:   []campaign.ShardStatus{{Shard: 0, Planned: 100, Recorded: 30}, {Shard: 1, Planned: 100, Recorded: 20}},
	}
	out := formatSnapshot(s, "test")
	for _, want := range []string{
		`campaign "fmt" (live, test)`, "50/200 recorded (25.0%)", "12.5 boots/s",
		"ETA 12s", "ide_c", "shards: 0: 30/100, 1: 20/100", "Boot 30", "workers 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("formatSnapshot output lacks %q:\n%s", want, out)
		}
	}

	line := progressLine(s, 80)
	for _, want := range []string{"50/200 recorded", "25.0%", "12.5 boots/s", "ETA 12s"} {
		if !strings.Contains(line, want) {
			t.Errorf("progressLine lacks %q: %q", want, line)
		}
	}
	for _, width := range []int{80, 40, 20, 10, 5} {
		if got := progressLine(s, width); len(got) > width-1 {
			t.Errorf("progressLine(width=%d) is %d chars: %q", width, len(got), got)
		}
	}
	t.Setenv("COLUMNS", "42")
	if got := termWidth(); got != 42 {
		t.Errorf("termWidth() = %d with COLUMNS=42", got)
	}
	t.Setenv("COLUMNS", "bogus")
	if got := termWidth(); got != 80 {
		t.Errorf("termWidth() = %d with bogus COLUMNS, want the 80 default", got)
	}
}

func TestCampaignCLIErrors(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"campaign"}); err == nil {
		t.Error("missing campaign verb accepted")
	}
	if err := run([]string{"campaign", "destroy"}); err == nil {
		t.Error("unknown campaign verb accepted")
	}
	if err := run([]string{"campaign", "run"}); err == nil {
		t.Error("campaign run without -store accepted")
	}
	if err := run([]string{"campaign", "resume", "-store",
		filepath.Join(dir, "empty.jsonl"), "-quiet"}); err == nil {
		t.Error("resume of an empty store accepted")
	}
	// A store written when a third backend, "compiled", still existed:
	// resume must refuse it with the backend error, before any boot, not
	// with a panic or a fingerprint mismatch.
	old := filepath.Join(dir, "compiled.jsonl")
	st, err := campaign.OpenFile(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(campaign.SpecRecord(campaign.Spec{Name: "old",
		Drivers: []string{"busmouse_c"}, SamplePct: 10, Seed: 1, Backend: "compiled"})); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(old); err != nil || !strings.Contains(string(raw), `"backend":"compiled"`) {
		t.Fatalf("fixture store lacks the compiled backend: %q, %v", raw, err)
	}
	err = run([]string{"campaign", "resume", "-store", old, "-quiet"})
	if err == nil || !strings.Contains(err.Error(), `unknown execution backend "compiled"`) ||
		!strings.Contains(err.Error(), "block") || !strings.Contains(err.Error(), "interp") {
		t.Errorf("resume of a compiled-backend store: err = %v, want the unknown-backend error", err)
	}
	st, err = campaign.OpenFile(old)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(st.Records()); n != 1 {
		t.Errorf("refused resume left %d records, want only the spec record", n)
	}
	st.Close()
	// A finished store written while prefix snapshotting, the front end
	// and the store's flush interval were CLI knobs: the fields were
	// omitempty and fingerprint-excluded, so a spec record saying
	// "snapshot":"off", "frontend":"full" and "flush_every":7 must resume
	// under the same fingerprint, boot nothing and leave the store
	// byte-identical.
	snapStore := filepath.Join(dir, "snapshot-off.jsonl")
	if err := run([]string{"campaign", "run", "-store", snapStore,
		"-drivers", "busmouse_c", "-sample", "3", "-seed", "1", "-quiet"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snapStore)
	if err != nil {
		t.Fatal(err)
	}
	specLine, rest, _ := strings.Cut(string(raw), "\n")
	var rec, spec map[string]json.RawMessage
	if err := json.Unmarshal([]byte(specLine), &rec); err != nil || string(rec["kind"]) != `"spec"` {
		t.Fatalf("first store line is not a spec record: %q, %v", specLine, err)
	}
	if err := json.Unmarshal(rec["spec"], &spec); err != nil {
		t.Fatal(err)
	}
	spec["snapshot"] = json.RawMessage(`"off"`)
	spec["frontend"] = json.RawMessage(`"full"`)
	spec["flush_every"] = json.RawMessage(`7`)
	if rec["spec"], err = json.Marshal(spec); err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	raw = append(append(line, '\n'), rest...)
	if err := os.WriteFile(snapStore, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err = campaign.OpenFile(snapStore); err != nil {
		t.Fatal(err)
	}
	if r := st.Records()[0]; r.Spec == nil || r.Spec.Fingerprint() != r.Fingerprint {
		t.Errorf("snapshot=off frontend=full spec record does not fingerprint as stored: %+v", r)
	}
	st.Close()
	if err := run([]string{"campaign", "resume", "-store", snapStore, "-quiet"}); err != nil {
		t.Errorf("resume of a snapshot=off frontend=full store: %v", err)
	}
	if after, err := os.ReadFile(snapStore); err != nil || !bytes.Equal(after, raw) {
		t.Errorf("resume of a finished snapshot=off frontend=full store changed it (err %v)", err)
	}
	// The knobs themselves are gone: both verbs refuse them as undefined
	// flags.
	for _, verb := range []string{"run", "resume"} {
		for _, knob := range [][]string{{"-snapshot", "off"}, {"-frontend", "full"}, {"-flush-every", "7"}} {
			err := run([]string{"campaign", verb, "-store", snapStore, knob[0], knob[1], "-quiet"})
			if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+knob[0]) {
				t.Errorf("campaign %s %s %s: err = %v, want an undefined-flag error", verb, knob[0], knob[1], err)
			}
		}
	}
	// An out-of-range sample percentage, an empty or repeated driver
	// list, or one hardware cell spelled two ways fails before any boot,
	// instead of silently booting the whole enumeration, nothing, or
	// every mutant twice.
	for _, tc := range []struct{ name, drivers, sample, scenario, want string }{
		{"sample-5", "busmouse_c", "-5", "", "out of range"},
		{"sample150", "busmouse_c", "150", "", "out of range"},
		{"no-drivers", "", "1", "", "no drivers listed"},
		{"comma-drivers", ",", "1", "", "no drivers listed"},
		{"twice", "busmouse_c,busmouse_c", "10", "", "driver busmouse_c listed twice"},
		{"timing-default", "busmouse_c", "10", "timing,timing:8", `scenarios "timing" and "timing:8" name the same cell`},
		{"timing-zero", "busmouse_c", "10", "timing:8,timing:08", `scenarios "timing:8" and "timing:08" name the same cell`},
		{"timing-plus", "busmouse_c", "10", "timing:8,timing:+8", `scenarios "timing:8" and "timing:+8" name the same cell`},
		{"flaky-default", "busmouse_c", "10", "flaky-bus,flaky-bus:2", `scenarios "flaky-bus" and "flaky-bus:2" name the same cell`},
	} {
		path := filepath.Join(dir, tc.name+".jsonl")
		err := run([]string{"campaign", "run", "-store", path,
			"-drivers", tc.drivers, "-sample", tc.sample, "-scenario", tc.scenario, "-quiet"})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("campaign run %s: err = %v, want %q", tc.name, err, tc.want)
		}
		if st, err = campaign.OpenFile(path); err != nil {
			t.Fatal(err)
		}
		for _, r := range st.Records() {
			if r.Kind == campaign.KindResult {
				t.Errorf("campaign run %s booted mutant %d", tc.name, r.Mutant)
				break
			}
		}
		st.Close()
	}
	// Two distinct parameters are two cells: every selected mutant boots
	// once under each.
	cellStore := filepath.Join(dir, "two-cells.jsonl")
	if err := run([]string{"campaign", "run", "-store", cellStore, "-drivers", "busmouse_c",
		"-sample", "3", "-scenario", "timing:8,timing:16", "-quiet"}); err != nil {
		t.Fatal(err)
	}
	if st, err = campaign.OpenFile(cellStore); err != nil {
		t.Fatal(err)
	}
	booted := map[string]int{}
	for _, r := range st.Records() {
		if r.Kind == campaign.KindResult {
			booted[r.Scenario]++
		}
	}
	st.Close()
	if len(booted) != 2 || booted["timing:8"] == 0 || booted["timing:8"] != booted["timing:16"] {
		t.Errorf("timing:8,timing:16 booted %v, want the same mutants under both cells", booted)
	}
	if err := run([]string{"campaign", "merge", "-out", filepath.Join(dir, "out.jsonl")}); err == nil {
		t.Error("merge without inputs accepted")
	}
	if err := run([]string{"campaign", "run", "-store", filepath.Join(dir, "s.jsonl"),
		"-drivers", "busmouse_c", "-sample", "10", "-shards", "2", "-shard", "7", "-quiet"}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	_ = os.Remove(filepath.Join(dir, "s.jsonl"))
}

// TestScenariosCLI: the scenarios subcommand lists every
// scenario, -names emits the machine-readable form the docs gate
// consumes, and positional arguments are rejected.
func TestScenariosCLI(t *testing.T) {
	if err := run([]string{"scenarios"}); err != nil {
		t.Errorf("scenarios: %v", err)
	}
	if err := run([]string{"scenarios", "-names"}); err != nil {
		t.Errorf("scenarios -names: %v", err)
	}
	if err := run([]string{"scenarios", "extra"}); err == nil {
		t.Error("scenarios with arguments accepted")
	}
}

// TestCampaignMatrixCLI drives a small fault-injection matrix through
// the full CLI lifecycle — run with -scenario, offline status, report —
// and checks the store holds every cell. This is the -race CI smoke for
// the scenario engine.
func TestCampaignMatrixCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign matrix CLI test is not short")
	}
	store := filepath.Join(t.TempDir(), "matrix.jsonl")
	if err := run([]string{"campaign", "run", "-store", store,
		"-drivers", "busmouse_devil", "-sample", "20", "-seed", "11",
		"-scenario", "pristine,flaky-bus:10", "-quiet"}); err != nil {
		t.Fatalf("campaign run -scenario: %v", err)
	}
	if err := run([]string{"campaign", "status", store}); err != nil {
		t.Fatalf("campaign status: %v", err)
	}
	if err := run([]string{"campaign", "report", "-store", store}); err != nil {
		t.Fatalf("campaign report: %v", err)
	}

	st, err := campaign.OpenFile(store)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tables, order, err := campaign.Aggregate(st.Records())
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatalf("matrix store aggregates to cells %v, want 2", order)
	}
	for _, cell := range []string{"busmouse_devil", "busmouse_devil@flaky-bus:10"} {
		if tables[cell] == nil || !tables[cell].Complete() {
			t.Errorf("cell %s missing or incomplete", cell)
		}
	}

	// A bad scenario name fails before any rig is assembled, naming the
	// known scenarios.
	err = run([]string{"campaign", "run", "-store",
		filepath.Join(t.TempDir(), "bad.jsonl"),
		"-drivers", "busmouse_devil", "-sample", "20",
		"-scenario", "flaky-buss", "-quiet"})
	if err == nil || !strings.Contains(err.Error(), "flaky-bus") {
		t.Errorf("unknown scenario error = %v, want the known names listed", err)
	}
}
