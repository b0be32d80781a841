package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// fakeWorkload expands to n tasks of one driver that boot instantly.
type fakeWorkload struct{ n int }

func (f fakeWorkload) Expand(campaign.Spec) ([]campaign.Meta, []campaign.Task, error) {
	tasks := make([]campaign.Task, f.n)
	for i := range tasks {
		tasks[i] = campaign.Task{Driver: "fake", Mutant: i}
	}
	return []campaign.Meta{{Driver: "fake", Enumerated: f.n, Selected: f.n}}, tasks, nil
}

func (f fakeWorkload) NewWorker(campaign.Spec) (campaign.Worker, error) { return fakeWorker{}, nil }

type fakeWorker struct{}

func (fakeWorker) Boot(t campaign.Task) (campaign.Outcome, error) {
	return campaign.Outcome{Row: "Boot", Steps: int64(t.Mutant)}, nil
}
func (fakeWorker) Close() {}

// The engine type-asserts its store for SetFlushEvery and SetFlushHook;
// the wrapper must pass both through, traced or not.
func TestTimedStoreForwardsFlushKnobs(t *testing.T) {
	for _, tracing := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "s.jsonl")
		fs, err := campaign.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder(tracing)
		store := newTimedStore(fs, rec)
		col := obs.New()
		// 1 spec + 1 meta + 5 results = 7 appends: with a flush every 2,
		// three checkpoints reach the file before Close.
		spec := campaign.Spec{Drivers: []string{"fake"}, FlushEvery: 2}
		cs := rec.beginCampaign()
		if _, err := campaign.Run(spec, timedWorkload{fakeWorkload{5}, rec}, store,
			campaign.Options{Workers: 1, Metrics: campaign.NewMetrics(col)}); err != nil {
			t.Fatal(err)
		}
		rec.endCampaign(cs)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if lines := bytes.Count(data, []byte("\n")); lines != 6 {
			t.Errorf("tracing=%v: %d lines flushed before Close, want 6 (SetFlushEvery not forwarded?)", tracing, lines)
		}
		var flushes uint64
		for _, s := range col.Gather() {
			if s.Name == campaign.MetricFlush {
				flushes += s.Count
			}
		}
		if flushes != 3 {
			t.Errorf("tracing=%v: engine saw %d flushes, want 3 (SetFlushHook not forwarded?)", tracing, flushes)
		}
		if tracing && rec.flushes.Load() != 3 {
			t.Errorf("recorder saw %d flushes, want 3", rec.flushes.Load())
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if tracing {
			if n := len(rec.durs); n != 0 {
				t.Errorf("traced recorder kept %d bare durations", n)
			}
			if st := rec.engineStats(); st.busyFrac <= 0 || st.busyFrac > 1 || st.appendMean <= 0 {
				t.Errorf("engine stats %+v", st)
			}
		} else if n := len(rec.durs); n != 5 {
			t.Errorf("untraced recorder kept %d boot durations, want 5", n)
		}
	}
}
