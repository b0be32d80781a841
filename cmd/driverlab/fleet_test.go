package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
)

// renderStoreTables renders a store's report tables exactly as
// `campaign report` lays them out — the byte-comparison currency of the
// fleet determinism assertions.
func renderStoreTables(t *testing.T, path string) string {
	t.Helper()
	st, err := campaign.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tables, order, err := campaign.Aggregate(st.Records())
	if err != nil {
		t.Fatal(err)
	}
	var text string
	for _, label := range order {
		if !tables[label].Complete() {
			t.Fatalf("cell %s incomplete: %d/%d", label, tables[label].Results, tables[label].Selected)
		}
		text += experiment.FormatDriverTable(tables[label], label)
	}
	return text
}

// serveFleet runs `serve` over store with the extra flags and workers
// in-process `worker`s until the campaign drains.
func serveFleet(t *testing.T, store string, flags []string, workers int) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr.txt")
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- run(append([]string{"serve", "-store", store,
			"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-quiet"}, flags...))
	}()
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; {
		if time.Now().After(deadline) {
			t.Fatal("serve never wrote its address file")
		}
		if data, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(data))
		} else {
			time.Sleep(20 * time.Millisecond)
		}
	}

	var wg sync.WaitGroup
	workerErrs := make([]error, workers)
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = run([]string{"worker", "-connect", addr, "-name", fmt.Sprintf("cli-w%d", i), "-quiet"})
		}(i)
	}
	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestFleetCLI drives the fleet lifecycle through the subcommand
// surface: `serve` coordinates, two `worker` processes (in-process
// here) lease and boot, and the canonical store's report tables are
// byte-identical to a serial `campaign run` of the same spec.
func TestFleetCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet CLI test is not short")
	}
	dir := t.TempDir()
	fleetStore := filepath.Join(dir, "fleet.jsonl")
	serialStore := filepath.Join(dir, "serial.jsonl")

	if err := run([]string{"campaign", "run", "-store", serialStore,
		"-drivers", "busmouse_c", "-sample", "8", "-seed", "11", "-quiet"}); err != nil {
		t.Fatalf("serial campaign run: %v", err)
	}

	serveFleet(t, fleetStore, []string{"-drivers", "busmouse_c", "-sample", "8", "-seed", "11", "-shards", "4"}, 2)

	want := renderStoreTables(t, serialStore)
	got := renderStoreTables(t, fleetStore)
	if got != want {
		t.Errorf("fleet report tables differ from serial:\n--- serial\n%s\n--- fleet\n%s", want, got)
	}
	if err := run([]string{"campaign", "report", "-store", fleetStore}); err != nil {
		t.Errorf("campaign report over the fleet store: %v", err)
	}
}

// TestServeResumeShards: `serve -resume` over a store of a 16-shard
// spec partitions the work by an explicit -shards, also when it names
// the flag's default of 8, and keeps the store's 16 without the flag.
// The partition the coordinator served is the one every streamed result
// record carries.
func TestServeResumeShards(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet CLI test is not short")
	}
	for _, tc := range []struct {
		flags  []string
		shards int
	}{
		{[]string{"-shards", "8"}, 8},
		{nil, 16},
	} {
		store := filepath.Join(t.TempDir(), "fleet.jsonl")
		st, err := campaign.OpenFile(store)
		if err != nil {
			t.Fatal(err)
		}
		spec := campaign.Spec{Name: "reshard", Drivers: []string{"busmouse_c"}, SamplePct: 8, Seed: 11, Shards: 16}
		if err := st.Append(campaign.SpecRecord(spec)); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		serveFleet(t, store, append([]string{"-resume"}, tc.flags...), 1)

		st, err = campaign.OpenFile(store)
		if err != nil {
			t.Fatal(err)
		}
		results := 0
		for _, r := range st.Records() {
			if r.Kind != campaign.KindResult {
				continue
			}
			results++
			want := campaign.ShardOfTask(campaign.Task{Driver: r.Driver, Mutant: r.Mutant, Scenario: r.Scenario}, tc.shards)
			if r.Shard != want {
				t.Errorf("serve -resume %v: %s in shard %d, want %d of %d", tc.flags, r.Key(), r.Shard, want, tc.shards)
			}
		}
		st.Close()
		if results == 0 {
			t.Errorf("serve -resume %v stored no results", tc.flags)
		}
	}
}

// TestFleetCLIErrors pins the flag validation of the new subcommands.
func TestFleetCLIErrors(t *testing.T) {
	if err := run([]string{"serve"}); err == nil {
		t.Error("serve without -store accepted")
	}
	if err := run([]string{"worker"}); err == nil {
		t.Error("worker without -connect accepted")
	}
	if err := run([]string{"worker", "-connect", "127.0.0.1:1", "-frontend", "full"}); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined: -frontend") {
		t.Errorf("worker -frontend full = %v, want an undefined-flag error", err)
	}
	if err := run([]string{"serve", "-store", filepath.Join(t.TempDir(), "x.jsonl"),
		"-resume"}); err == nil {
		t.Error("serve -resume over an empty store accepted")
	}
	for _, args := range [][]string{{"serve", "-h"}, {"worker", "-h"}} {
		if err := run(args); err != nil {
			t.Errorf("run(%v) = %v, want nil (help is not an error)", args, err)
		}
	}
}

// TestStatusUnreachableAddress: `campaign status` against an address
// nothing listens on must fail with a message that names the address it
// tried and points at the serve/worker way of starting one.
func TestStatusUnreachableAddress(t *testing.T) {
	_, err := fetchSnapshot("127.0.0.1:1")
	if err == nil {
		t.Fatal("fetchSnapshot against a dead endpoint succeeded")
	}
	for _, want := range []string{
		"127.0.0.1:1",     // the address it actually tried
		"-status-addr",    // how a single-process run serves status
		"driverlab serve", // how a fleet coordinator serves it
		"worker -connect", // how workers join that fleet
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unreachable-status error %q does not mention %q", err, want)
		}
	}
	// And through the CLI: a non-nil error means a non-zero exit.
	if err := run([]string{"campaign", "status", "127.0.0.1:1"}); err == nil {
		t.Error("campaign status against a dead endpoint accepted")
	}
}

// TestFleetSnapshotFormatting: a snapshot carrying fleet counters
// renders the fleet lines in the status view.
func TestFleetSnapshotFormatting(t *testing.T) {
	s := campaign.Snapshot{
		Name: "fmt", Live: true, Workers: 3, Total: 100, Recorded: 40, Ran: 40,
		Fleet: &campaign.FleetStatus{
			Workers: 3, ShardsTotal: 8, ShardsComplete: 5, ShardsLeased: 2,
			Leases: 9, Releases: 2, RejectedFrames: 1, StaleRecords: 4,
		},
	}
	out := formatSnapshot(s, "test")
	for _, want := range []string{
		"fleet: 3 workers connected", "shards 5/8 complete (2 leased)",
		"9 leases (2 re-leased)", "1 rejected frames", "4 stale records",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet snapshot view lacks %q:\n%s", want, out)
		}
	}
	// Without fleet counters the fleet lines stay out of the view.
	s.Fleet = nil
	if out := formatSnapshot(s, "test"); strings.Contains(out, "fleet") {
		t.Errorf("non-fleet snapshot renders fleet lines:\n%s", out)
	}
}
