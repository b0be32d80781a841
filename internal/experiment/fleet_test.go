package experiment

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/fleet"
)

// hookedWorkload wraps the real experiment workload so chaos tests can
// act at boot boundaries (the moment a fleet worker is deepest in real
// work) without touching the workload itself.
type hookedWorkload struct {
	campaign.Workload
	onBoot func()
}

func (h *hookedWorkload) NewWorker(spec campaign.Spec) (campaign.Worker, error) {
	w, err := h.Workload.NewWorker(spec)
	if err != nil {
		return nil, err
	}
	return &hookedWorker{Worker: w, onBoot: h.onBoot}, nil
}

type hookedWorker struct {
	campaign.Worker
	onBoot func()
}

func (w *hookedWorker) Boot(t campaign.Task) (campaign.Outcome, error) {
	w.onBoot()
	return w.Worker.Boot(t)
}

// TestFleetCampaignSurvivesKilledWorker is the chaos leg of the fleet
// story on the real workload: a worker is killed mid-shard while
// booting actual driver mutants, its lease moves to a healthy worker,
// and the final report tables are byte-identical to the serial run —
// no task lost, none duplicated, no outcome changed by the crash.
func TestFleetCampaignSurvivesKilledWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet chaos test is not short")
	}
	spec := campaign.Spec{Drivers: []string{"busmouse_c"}, SamplePct: 6, Seed: 13}
	spec.Name = "fleet-chaos"
	spec.Shards = 4

	render := func(st campaign.Store) string {
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
		return text
	}

	serial := campaign.NewMemStore()
	if _, err := campaign.Run(spec, NewWorkload(), serial, campaign.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	want := render(serial)

	store := campaign.NewMemStore()
	co, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Spec: spec, Workload: NewWorkload(), Store: store,
		LeaseTTL: 2 * time.Second,
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

	// The victim dies on its 4th real boot: records already streamed
	// (BatchSize 1), shard unfinished.
	interrupt := make(chan struct{})
	var once sync.Once
	boots := 0
	var mu sync.Mutex
	victim := &hookedWorkload{Workload: NewWorkload(), onBoot: func() {
		mu.Lock()
		boots++
		n := boots
		mu.Unlock()
		if n >= 4 {
			once.Do(func() { close(interrupt) })
		}
	}}
	var wg sync.WaitGroup
	wg.Add(1)
	var victimErr error
	go func() {
		defer wg.Done()
		_, victimErr = fleet.RunWorker(co.Addr(), victim, fleet.WorkerOptions{
			Name: "victim", Workers: 1, BatchSize: 1, Interrupt: interrupt,
		})
	}()
	<-interrupt
	wg.Wait()
	if !errors.Is(victimErr, campaign.ErrInterrupted) {
		t.Fatalf("victim returned %v, want ErrInterrupted", victimErr)
	}

	if _, err := fleet.RunWorker(co.Addr(), NewWorkload(), fleet.WorkerOptions{
		Name: "survivor", Workers: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := co.Wait(); err != nil {
		t.Fatal(err)
	}
	if fs := co.FleetStatus(); fs.Releases == 0 {
		t.Errorf("the kill released no lease; re-leasing was not exercised (status %+v)", fs)
	}

	// Exactly-once: one result record per planned task.
	_, tasks, err := campaign.ExpandPlan(spec, NewWorkload())
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, r := range store.Records() {
		if r.Kind == campaign.KindResult {
			counts[r.Key()]++
		}
	}
	for _, task := range tasks {
		if counts[task.Key()] != 1 {
			t.Errorf("task %s has %d records, want exactly 1", task.Key(), counts[task.Key()])
		}
	}
	if len(counts) != len(tasks) {
		t.Errorf("store holds %d result keys, plan has %d tasks", len(counts), len(tasks))
	}

	if got := render(store); got != want {
		t.Errorf("post-kill fleet tables differ from serial:\n--- serial\n%s\n--- fleet\n%s", want, got)
	}
}
