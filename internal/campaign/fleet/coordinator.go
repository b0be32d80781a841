package fleet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// Coordinator defaults; CoordinatorConfig overrides them per campaign.
const (
	// DefaultLeaseTTL is how long a lease survives without a sign of
	// life from its owner before the janitor re-leases the shard.
	DefaultLeaseTTL = 15 * time.Second
	// DefaultRetryDelay is the backoff a worker is told to sleep when
	// every pending shard is leased out.
	DefaultRetryDelay = 500 * time.Millisecond
)

// ErrClosed reports that the coordinator was shut down before every
// shard completed. The store is consistent; restarting the coordinator
// on it leases only the remaining tasks.
var ErrClosed = errors.New("fleet: coordinator closed before the campaign completed")

// CoordinatorConfig assembles a Coordinator.
type CoordinatorConfig struct {
	// Spec is the campaign to serve. Spec.Shards is the lease
	// granularity — it should comfortably exceed the expected worker
	// count so the fleet load-balances (shard count is excluded from
	// the spec fingerprint, so it can differ from any prior run's).
	Spec campaign.Spec
	// Workload expands the spec into its deterministic work plan. The
	// coordinator never calls NewWorker — it boots nothing.
	Workload campaign.Workload
	// Store is the canonical record store every accepted result is
	// appended to.
	Store campaign.Store
	// LeaseTTL bounds how stale a lease may go (default DefaultLeaseTTL);
	// workers are told to heartbeat at a quarter of it.
	LeaseTTL time.Duration
	// Status, when non-nil, accumulates live progress for the /status
	// endpoint and `campaign status <addr>`.
	Status *campaign.StatusTracker
	// Collector, when non-nil, receives the fleet metric families.
	Collector *obs.Collector
	// Logf, when non-nil, receives one line per fleet event (worker
	// joins/leaves, leases, re-leases, protocol offenses).
	Logf func(format string, args ...any)
}

// shardState tracks one shard through the lease lifecycle:
// pending -> leased -> (complete | pending again on release).
type shardState struct {
	remaining map[string]bool // task keys the store still lacks
	records   []campaign.Record
	leased    bool
	complete  bool
	owner     *conn
	deadline  time.Time
}

// conn is one connected worker.
type conn struct {
	c    net.Conn
	name string
}

// Coordinator owns the canonical store of one campaign and leases its
// shards to fleet workers. All state mutations happen under mu; the
// per-connection read loops and the lease janitor are the only
// goroutines that take it.
type Coordinator struct {
	spec    campaign.Spec
	fp      string
	store   campaign.Store
	ttl     time.Duration
	status  *campaign.StatusTracker
	m       *metrics
	logf    func(string, ...any)
	metaFor map[string]string // task key -> cell label (for status)

	mu       sync.Mutex
	shards   map[int]*shardState
	pending  []int
	seen     map[string]bool
	conns    map[*conn]bool
	open     int // shards not yet complete
	complete bool

	leases, releases, rejected, stale atomic.Int64

	done    chan struct{} // closed when every shard is complete
	closed  chan struct{} // closed by Close
	closeMu sync.Once
	doneMu  sync.Once
	ln      net.Listener
	wg      sync.WaitGroup
}

// NewCoordinator expands the spec, reconciles the store through
// campaign.Reconcile (appending the spec and meta records a fresh store
// lacks, refusing a store that belongs to a different spec), and
// computes the remaining work per shard. A coordinator over a complete
// store is valid: Wait returns immediately and every lease request
// drains.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	spec := cfg.Spec.Normalized()
	fp := spec.Fingerprint()
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := &Coordinator{
		spec:    spec,
		fp:      fp,
		store:   cfg.Store,
		ttl:     ttl,
		status:  cfg.Status,
		m:       newMetrics(cfg.Collector),
		logf:    logf,
		metaFor: make(map[string]string),
		shards:  make(map[int]*shardState),
		seen:    make(map[string]bool),
		conns:   make(map[*conn]bool),
		done:    make(chan struct{}),
		closed:  make(chan struct{}),
	}

	metas, tasks, err := campaign.ExpandPlan(spec, cfg.Workload)
	if err != nil {
		return nil, err
	}

	// The resume scan campaign.Run makes too. The stored records stay
	// whole: a grant hands its shard's to the worker.
	stored, err := campaign.Reconcile(spec, metas, cfg.Store, cfg.Store.Append)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}

	if c.status != nil {
		c.status.Begin(spec.Name, fp, 0)
	}
	for sh := 0; sh < spec.Shards; sh++ {
		c.shards[sh] = &shardState{remaining: make(map[string]bool)}
	}
	for _, t := range tasks {
		st := c.shards[t.Shard]
		key := t.Key()
		cell := campaign.CellLabel(t.Driver, t.Scenario)
		c.metaFor[key] = cell
		if c.status != nil {
			c.status.Plan(cell, t.Shard)
		}
		if r, ok := stored[key]; ok {
			c.seen[key] = true
			st.records = append(st.records, r)
			if c.status != nil {
				c.status.Record(cell, t.Shard, r.Row, campaign.RecordSkip)
			}
			continue
		}
		st.remaining[key] = true
	}
	for sh := 0; sh < spec.Shards; sh++ {
		st := c.shards[sh]
		if len(st.remaining) == 0 {
			st.complete = true
			continue
		}
		c.open++
		c.pending = append(c.pending, sh)
	}
	c.m.shardsComplete.Set(int64(spec.Shards - c.open))
	if c.open == 0 {
		c.complete = true
		c.doneMu.Do(func() { close(c.done) })
	}
	return c, nil
}

// Spec returns the normalized spec the coordinator serves.
func (c *Coordinator) Spec() campaign.Spec { return c.spec }

// Start begins serving the fleet protocol on ln: the accept loop and
// the lease janitor run on background goroutines until Close. The
// coordinator owns ln from here on.
func (c *Coordinator) Start(ln net.Listener) {
	c.ln = ln
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.handle(nc)
			}()
		}
	}()
	go func() {
		defer c.wg.Done()
		c.janitor()
	}()
}

// Addr returns the listener's bound address (the value workers dial).
func (c *Coordinator) Addr() string {
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// Wait blocks until the campaign completes (nil) or the coordinator is
// closed first (ErrClosed).
func (c *Coordinator) Wait() error {
	select {
	case <-c.done:
		return nil
	case <-c.closed:
		select {
		case <-c.done:
			return nil
		default:
			return ErrClosed
		}
	}
}

// Close shuts the coordinator down: the listener stops accepting,
// every worker connection is closed, and the background goroutines
// exit. The store is left consistent (Close does not close it — the
// caller owns it) and a new coordinator can resume it.
func (c *Coordinator) Close() error {
	c.closeMu.Do(func() {
		close(c.closed)
		if c.ln != nil {
			c.ln.Close()
		}
		c.mu.Lock()
		for cc := range c.conns {
			cc.c.Close()
		}
		c.mu.Unlock()
	})
	c.wg.Wait()
	return nil
}

// DrainWorkers blocks until every connected worker has disconnected or
// the timeout passes. Called between completion and Close so workers
// get their drain response instead of a torn connection.
func (c *Coordinator) DrainWorkers(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		n := len(c.conns)
		c.mu.Unlock()
		if n == 0 || time.Now().After(deadline) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// FleetStatus snapshots the lease and protocol counters.
func (c *Coordinator) FleetStatus() campaign.FleetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	fs := campaign.FleetStatus{
		Workers:        len(c.conns),
		ShardsTotal:    c.spec.Shards,
		Leases:         c.leases.Load(),
		Releases:       c.releases.Load(),
		RejectedFrames: c.rejected.Load(),
		StaleRecords:   c.stale.Load(),
	}
	for _, st := range c.shards {
		switch {
		case st.complete:
			fs.ShardsComplete++
		case st.leased:
			fs.ShardsLeased++
		}
	}
	return fs
}

// janitor expires stale leases: any leased shard whose deadline has
// passed goes back to the pending queue, so a wedged or silently dead
// worker cannot strand its shard.
func (c *Coordinator) janitor() {
	tick := time.NewTicker(c.ttl / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.closed:
			return
		case now := <-tick.C:
			c.mu.Lock()
			for sh, st := range c.shards {
				if st.leased && !st.complete && now.After(st.deadline) {
					owner := "?"
					if st.owner != nil {
						owner = st.owner.name
					}
					c.releaseLocked(sh, st, "expired")
					c.logf("fleet: lease on shard %d expired (worker %s went quiet); re-leasing", sh, owner)
				}
			}
			c.mu.Unlock()
		}
	}
}

// releaseLocked returns a leased shard to the pending queue (mu held).
func (c *Coordinator) releaseLocked(sh int, st *shardState, reason string) {
	st.leased = false
	st.owner = nil
	c.pending = append(c.pending, sh)
	c.releases.Add(1)
	c.m.release(reason).Inc()
}

// rejectConn sends a reject frame (best effort) and counts the offense.
func (c *Coordinator) rejectConn(nc net.Conn, counter *obs.Counter, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	c.rejected.Add(1)
	counter.Inc()
	c.logf("fleet: %s: %s", nc.RemoteAddr(), msg)
	WriteMsg(nc, Msg{T: MsgReject, Error: msg})
}

// handle owns one worker connection: handshake, then the frame loop.
// Every protocol offense is contained to this connection — the
// offender is named, rejected and dropped; the coordinator, the other
// workers and the store stay untouched.
func (c *Coordinator) handle(nc net.Conn) {
	defer nc.Close()

	// Handshake: the first frame must be a hello with our protocol
	// version; a non-empty fingerprint must match the campaign's.
	nc.SetReadDeadline(time.Now().Add(c.ttl))
	hello, err := ReadMsg(nc)
	if err != nil {
		c.rejectConn(nc, c.m.rejectedFrame, "bad handshake frame: %v", err)
		return
	}
	nc.SetReadDeadline(time.Time{})
	if hello.T != MsgHello {
		c.rejectConn(nc, c.m.rejectedShake, "handshake violation: first frame is %q, want %q", hello.T, MsgHello)
		return
	}
	name := hello.Name
	if name == "" {
		name = nc.RemoteAddr().String()
	}
	if hello.Proto != Proto {
		c.rejectConn(nc, c.m.rejectedShake, "worker %q speaks fleet protocol %d, this coordinator speaks %d",
			name, hello.Proto, Proto)
		return
	}
	if hello.Fingerprint != "" && hello.Fingerprint != c.fp {
		c.rejectConn(nc, c.m.rejectedShake, "worker %q built for spec fingerprint %s, this campaign is %s; rejecting it",
			name, hello.Fingerprint, c.fp)
		return
	}
	spec := c.spec
	if err := WriteMsg(nc, Msg{
		T: MsgWelcome, Spec: &spec, Fingerprint: c.fp,
		HeartbeatMS: int(c.ttl.Milliseconds()) / 4,
		LeaseTTLMS:  int(c.ttl.Milliseconds()),
	}); err != nil {
		return
	}

	w := &conn{c: nc, name: name}
	c.mu.Lock()
	c.conns[w] = true
	n := len(c.conns)
	c.mu.Unlock()
	c.m.workers.Set(int64(n))
	if c.status != nil {
		c.status.SetWorkers(n)
	}
	c.logf("fleet: worker %q connected (%s); %d connected", name, nc.RemoteAddr(), n)
	recAccepted := c.m.workerRecords(name)

	defer func() {
		c.mu.Lock()
		delete(c.conns, w)
		n := len(c.conns)
		// A dropped connection releases every lease it still owns.
		for sh, st := range c.shards {
			if st.owner == w && !st.complete {
				c.releaseLocked(sh, st, "disconnect")
				c.logf("fleet: worker %q left holding shard %d; re-leasing", name, sh)
			}
		}
		c.mu.Unlock()
		c.m.workers.Set(int64(n))
		if c.status != nil {
			c.status.SetWorkers(n)
		}
		c.logf("fleet: worker %q disconnected; %d connected", name, n)
	}()

	for {
		m, err := ReadMsg(nc)
		if err != nil {
			if err != io.EOF {
				select {
				case <-c.closed:
				default:
					c.rejectConn(nc, c.m.rejectedFrame, "dropping worker %q: %v", name, err)
				}
			}
			return
		}
		switch m.T {
		case MsgLease:
			if err := c.grant(w); err != nil {
				return
			}
		case MsgHeartbeat:
			c.touch(w)
		case MsgRecords:
			c.accept(w, m.Records, recAccepted)
		case MsgDone:
			c.finish(w, m.Shard)
		default:
			// A structurally valid frame that makes no sense from a
			// worker (welcome/grant/...): name it and drop the sender.
			c.rejectConn(nc, c.m.rejectedFrame, "dropping worker %q: unexpected %q frame from a worker", name, m.T)
			return
		}
	}
}

// grant answers one lease request: the next pending shard, a retry
// backoff when everything is leased out, or drain when the campaign is
// complete.
func (c *Coordinator) grant(w *conn) error {
	c.mu.Lock()
	if c.complete {
		c.mu.Unlock()
		return WriteMsg(w.c, Msg{T: MsgDrain})
	}
	if len(c.pending) == 0 {
		c.mu.Unlock()
		return WriteMsg(w.c, Msg{T: MsgRetry, DelayMS: int(DefaultRetryDelay.Milliseconds())})
	}
	sh := c.pending[0]
	c.pending = c.pending[1:]
	st := c.shards[sh]
	st.leased = true
	st.owner = w
	st.deadline = time.Now().Add(c.ttl)
	done := append([]campaign.Record(nil), st.records...)
	remaining := len(st.remaining)
	c.leases.Add(1)
	c.mu.Unlock()
	c.m.leases.Inc()
	c.logf("fleet: leased shard %d to worker %q (%d tasks remaining, %d already stored)",
		sh, w.name, remaining, len(done))
	return WriteMsg(w.c, Msg{T: MsgGrant, Shard: sh, Done: done})
}

// touch refreshes the deadlines of every lease the worker owns — any
// sign of life (heartbeat, records, done) counts.
func (c *Coordinator) touch(w *conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	deadline := time.Now().Add(c.ttl)
	for _, st := range c.shards {
		if st.owner == w && st.leased {
			st.deadline = deadline
		}
	}
}

// accept appends a batch of streamed result records to the canonical
// store, deduplicating by task key: the first record for a task wins,
// later ones (a re-leased shard's residue) are counted and dropped. A
// store append failure is fatal to the campaign — the coordinator
// closes, leaving the store consistent for a restart.
func (c *Coordinator) accept(w *conn, records []campaign.Record, accepted *obs.Counter) {
	c.touch(w)
	c.mu.Lock()
	for _, r := range records {
		if r.Kind != campaign.KindResult {
			continue // workers only stream results; anything else is noise
		}
		key := r.Key()
		if c.seen[key] {
			c.stale.Add(1)
			c.m.stale.Inc()
			continue
		}
		cell, known := c.metaFor[key]
		if !known {
			// A record for a task outside the plan: a worker from some
			// other campaign slipped past dedup. Count and drop it.
			c.stale.Add(1)
			c.m.stale.Inc()
			c.logf("fleet: worker %q streamed record for unplanned task %s; dropping it", w.name, key)
			continue
		}
		if err := c.store.Append(r); err != nil {
			c.mu.Unlock()
			c.logf("fleet: store append failed (%v); shutting down", err)
			go c.Close()
			return
		}
		c.seen[key] = true
		accepted.Inc()
		// The shard is recomputed from the task identity, not read from
		// the record: shard accounting must stay canonical even if a
		// worker mislabels its frames.
		sh := campaign.ShardOfTask(campaign.Task{
			Driver: r.Driver, Mutant: r.Mutant, Scenario: r.Scenario,
		}, c.spec.Shards)
		if st := c.shards[sh]; st != nil {
			delete(st.remaining, key)
			st.records = append(st.records, r)
			if len(st.remaining) == 0 && !st.complete {
				c.completeLocked(sh, st)
			}
		}
		if c.status != nil {
			c.status.Record(cell, sh, r.Row, campaign.KindOfRecord(r))
		}
	}
	c.mu.Unlock()
}

// finish handles a shard-done report. Trust but verify: the shard only
// completes when every one of its task keys has a stored record; a
// premature done (lost records, a worker bug) re-leases the shard
// instead of silently losing tasks.
func (c *Coordinator) finish(w *conn, sh int) {
	c.touch(w)
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.shards[sh]
	if !ok {
		c.logf("fleet: worker %q reported done on unknown shard %d", w.name, sh)
		return
	}
	if st.complete {
		return // a stale worker finishing work that was re-leased and completed
	}
	if len(st.remaining) > 0 {
		// Incomplete done. If the reporter still owns the lease, the
		// shard goes back to the queue; if the lease already moved on,
		// the current owner keeps it.
		if st.owner == w {
			c.releaseLocked(sh, st, "incomplete")
			c.logf("fleet: worker %q reported shard %d done with %d tasks missing; re-leasing",
				w.name, sh, len(st.remaining))
		}
		return
	}
	c.completeLocked(sh, st)
}

// completeLocked marks a shard complete (mu held): the moment its last
// task record lands, whether that arrived in a records batch or was
// verified by a done report.
func (c *Coordinator) completeLocked(sh int, st *shardState) {
	st.complete = true
	st.leased = false
	st.owner = nil
	c.open--
	c.m.shardsComplete.Set(int64(c.spec.Shards - c.open))
	c.logf("fleet: shard %d complete (%d/%d shards)", sh, c.spec.Shards-c.open, c.spec.Shards)
	if c.open == 0 {
		c.complete = true
		if fs, ok := c.store.(interface{ Flush() error }); ok {
			fs.Flush()
		}
		c.doneMu.Do(func() { close(c.done) })
	}
}
