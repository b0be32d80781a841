package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
)

// The benchmark times each layer from outside, by wrapping the calls the
// campaign engine makes into the workload (Expand, Worker.Boot) and into
// the store (Append, checkpoint flushes). An untraced run keeps only the
// boot durations the end-to-end percentiles need; a traced run keeps
// every call as a span, in memory, and writes them out when it ends.

// span is one timed call. Times are nanoseconds since the recorder began.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent,omitempty"`
	Name     string `json:"name"` // setup, campaign, boot or store.append
	Lane     int    `json:"lane,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Driver   string `json:"driver,omitempty"`
	Mutant   int    `json:"mutant,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	Row      string `json:"row,omitempty"`
}

// recorder collects one phase's timings.
type recorder struct {
	tracing bool
	t0      time.Time
	ids     atomic.Int64
	lanes   atomic.Int64
	// campaign is the ID of the campaign span in flight: set before
	// campaign.Run starts its workers, read by them.
	campaign int64

	mu    sync.Mutex
	durs  []int64 // Worker.Boot wall times, ns
	spans []span

	flushes atomic.Int64
	flushNs atomic.Int64
}

func newRecorder(tracing bool) *recorder {
	return &recorder{tracing: tracing, t0: time.Now()}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// add records a finished span.
func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// beginCampaign opens the campaign span boots and appends hang under.
func (r *recorder) beginCampaign() span {
	s := span{ID: r.ids.Add(1), Name: "campaign", Start: r.now()}
	r.campaign = s.ID
	return s
}

func (r *recorder) endCampaign(s span) {
	s.End = r.now()
	if r.tracing {
		r.add(s)
	}
}

// writeSpans writes the spans as JSON lines.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedWorkload wraps the experiment workload so every worker it builds
// is timed, and (traced) every Expand is a setup span.
type timedWorkload struct {
	campaign.Workload
	rec *recorder
}

func (w timedWorkload) Expand(spec campaign.Spec) ([]campaign.Meta, []campaign.Task, error) {
	start := w.rec.now()
	metas, tasks, err := w.Workload.Expand(spec)
	if w.rec.tracing {
		w.rec.add(span{ID: w.rec.ids.Add(1), Parent: w.rec.campaign, Name: "setup",
			Start: start, End: w.rec.now()})
	}
	return metas, tasks, err
}

func (w timedWorkload) NewWorker(spec campaign.Spec) (campaign.Worker, error) {
	inner, err := w.Workload.NewWorker(spec)
	if err != nil {
		return nil, err
	}
	return &timedWorker{inner: inner, rec: w.rec, lane: int(w.rec.lanes.Add(1))}, nil
}

// timedWorker times Worker.Boot. It is owned by one engine goroutine, so
// it buffers its timings and hands them to the recorder on Close, which
// the engine calls when the goroutine finishes.
type timedWorker struct {
	inner campaign.Worker
	rec   *recorder
	lane  int
	durs  []int64
	spans []span
}

func (w *timedWorker) Boot(t campaign.Task) (campaign.Outcome, error) {
	start := w.rec.now()
	out, err := w.inner.Boot(t)
	end := w.rec.now()
	if w.rec.tracing {
		w.spans = append(w.spans, span{ID: w.rec.ids.Add(1), Parent: w.rec.campaign, Name: "boot",
			Lane: w.lane, Start: start, End: end,
			Driver: t.Driver, Mutant: t.Mutant, Scenario: t.Scenario, Row: out.Row})
	} else {
		w.durs = append(w.durs, end-start)
	}
	return out, err
}

func (w *timedWorker) Close() {
	w.inner.Close()
	w.rec.mu.Lock()
	w.rec.durs = append(w.rec.durs, w.durs...)
	w.rec.spans = append(w.rec.spans, w.spans...)
	w.rec.mu.Unlock()
	w.durs, w.spans = nil, nil
}

// flushStore is the store surface the engine uses: Store plus the two
// knobs it type-asserts for (campaign.Run sets the checkpoint interval
// from Spec.FlushEvery and, with metrics on, a flush-latency hook).
type flushStore interface {
	campaign.Store
	SetFlushEvery(int)
	SetFlushHook(func(time.Duration))
}

// timedStore times appends (traced) and checkpoint flushes. It must
// forward both knobs, or wrapping would silently change flush behaviour.
type timedStore struct {
	inner flushStore
	rec   *recorder
}

func newTimedStore(inner flushStore, rec *recorder) *timedStore {
	s := &timedStore{inner: inner, rec: rec}
	if rec.tracing {
		inner.SetFlushHook(s.flushHook(nil))
	}
	return s
}

func (s *timedStore) Records() []campaign.Record { return s.inner.Records() }
func (s *timedStore) Close() error               { return s.inner.Close() }
func (s *timedStore) SetFlushEvery(n int)        { s.inner.SetFlushEvery(n) }

func (s *timedStore) SetFlushHook(fn func(time.Duration)) {
	s.inner.SetFlushHook(s.flushHook(fn))
}

// flushHook chains the recorder's flush timing in front of fn. It runs
// under the inner store's lock, so it touches only atomics.
func (s *timedStore) flushHook(fn func(time.Duration)) func(time.Duration) {
	if !s.rec.tracing {
		return fn
	}
	return func(d time.Duration) {
		s.rec.flushes.Add(1)
		s.rec.flushNs.Add(int64(d))
		if fn != nil {
			fn(d)
		}
	}
}

func (s *timedStore) Append(r campaign.Record) error {
	if !s.rec.tracing {
		return s.inner.Append(r)
	}
	start := s.rec.now()
	err := s.inner.Append(r)
	s.rec.add(span{ID: s.rec.ids.Add(1), Parent: s.rec.campaign, Name: "store.append",
		Start: start, End: s.rec.now()})
	return err
}

// engineStats derives the engine's share of the traced campaigns from
// the spans: each campaign offers its duration once per worker lane, and
// whatever its boots and appends did not use is engine self time
// (expansion, task hand-off, and lanes idling at the campaign's tail).
type engineStats struct {
	busyFrac        float64 // boot time / lane time
	overheadPerBoot float64 // engine self time per boot, ns
	appendMean      float64 // ns per append
}

func (r *recorder) engineStats() engineStats {
	type camp struct {
		dur     int64
		lanes   map[int]bool
		boot    int64
		appends int64
		boots   int
	}
	camps := make(map[int64]*camp)
	for _, s := range r.spans {
		if s.Name == "campaign" {
			camps[s.ID] = &camp{dur: s.End - s.Start, lanes: make(map[int]bool)}
		}
	}
	var appends, appendNs int64
	for _, s := range r.spans {
		c := camps[s.Parent]
		switch s.Name {
		case "boot":
			c.lanes[s.Lane] = true
			c.boot += s.End - s.Start
			c.boots++
		case "store.append":
			appends++
			appendNs += s.End - s.Start
			if c != nil {
				c.appends += s.End - s.Start
			}
		}
	}
	var lane, boot, self int64
	boots := 0
	for _, c := range camps {
		offered := c.dur * int64(len(c.lanes))
		lane += offered
		boot += c.boot
		self += offered - c.boot - c.appends
		boots += c.boots
	}
	var st engineStats
	if lane > 0 {
		st.busyFrac = float64(boot) / float64(lane)
	}
	if boots > 0 {
		st.overheadPerBoot = float64(self) / float64(boots)
	}
	if appends > 0 {
		st.appendMean = float64(appendNs) / float64(appends)
	}
	return st
}
