package fleet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
)

// DefaultBatchSize is how many result records a worker accumulates
// before streaming a records frame (matching the file store's flush
// cadence).
const DefaultBatchSize = 64

// WorkerOptions tunes one fleet worker.
type WorkerOptions struct {
	// Name identifies the worker in coordinator logs, rejections and
	// per-worker metrics (default: the connection's local address).
	Name string
	// Workers is the engine pool size inside this process (default:
	// GOMAXPROCS, the engine's own default).
	Workers int
	// Fingerprint, when non-empty, is the spec fingerprint the worker
	// insists on; the coordinator rejects the handshake by name when it
	// serves a different campaign.
	Fingerprint string
	// Interrupt, when non-nil, stops the worker once closed: the engine
	// drains in-flight boots, the connection closes, and RunWorker
	// returns campaign.ErrInterrupted.
	Interrupt <-chan struct{}
	// BatchSize is how many records accumulate before a records frame
	// (default DefaultBatchSize).
	BatchSize int
	// Logf, when non-nil, receives one line per lease.
	Logf func(format string, args ...any)

	// suppressHeartbeats silences the heartbeat loop — a chaos hook for
	// tests that prove the coordinator re-leases a wedged worker's shard.
	suppressHeartbeats bool
}

// WorkerSummary reports what one worker did over its connection.
type WorkerSummary struct {
	// Shards is how many leases the worker completed.
	Shards int
	// Records is how many result records it streamed to the coordinator.
	Records int
}

// RunWorker dials a fleet coordinator and works until the campaign
// drains: handshake, then lease-execute-stream in a loop. Each granted
// shard runs on the unmodified campaign engine against an in-memory
// store seeded with the grant's already-stored records, so only the
// remaining tasks boot; every freshly appended result streams back in
// batches while a background heartbeat keeps the lease alive through
// long boots.
func RunWorker(addr string, wl campaign.Workload, opts WorkerOptions) (*WorkerSummary, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fleet: dial coordinator %s: %w", addr, err)
	}
	defer nc.Close()
	name := opts.Name
	if name == "" {
		name = nc.LocalAddr().String()
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	batchSize := opts.BatchSize
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}

	// All writes to the connection — lease requests, record batches from
	// engine goroutines, heartbeats — go through one mutex. Reads need
	// none: the main loop is the only reader, and the coordinator only
	// sends frames in response to requests.
	var sendMu sync.Mutex
	send := func(m Msg) error {
		sendMu.Lock()
		defer sendMu.Unlock()
		return WriteMsg(nc, m)
	}

	if err := send(Msg{T: MsgHello, Name: name, Proto: Proto, Fingerprint: opts.Fingerprint}); err != nil {
		return nil, err
	}
	welcome, err := ReadMsg(nc)
	if err != nil {
		return nil, fmt.Errorf("fleet: handshake with %s failed: %w", addr, err)
	}
	switch welcome.T {
	case MsgReject:
		return nil, fmt.Errorf("fleet: coordinator %s rejected worker %q: %s", addr, name, welcome.Error)
	case MsgWelcome:
		// fall through
	default:
		return nil, fmt.Errorf("fleet: handshake with %s: got %q frame, want %q", addr, welcome.T, MsgWelcome)
	}
	if welcome.Spec == nil {
		return nil, fmt.Errorf("fleet: coordinator %s sent a welcome without a spec", addr)
	}
	spec := welcome.Spec.Normalized()
	if fp := spec.Fingerprint(); fp != welcome.Fingerprint {
		// Only possible when coordinator and worker disagree on the spec
		// schema (different builds). Refuse to run rather than stream
		// records for a different campaign.
		return nil, fmt.Errorf("fleet: spec from %s fingerprints to %s here, coordinator claims %s",
			addr, fp, welcome.Fingerprint)
	}

	// The interrupt watcher unblocks the main loop's blocking read by
	// closing the connection; `interrupted` disambiguates that from a
	// genuine network failure.
	var interrupted atomic.Bool
	stop := make(chan struct{})
	defer close(stop)
	if opts.Interrupt != nil {
		go func() {
			select {
			case <-opts.Interrupt:
				interrupted.Store(true)
				nc.Close()
			case <-stop:
			}
		}()
	}

	// Heartbeats keep leases alive while the engine is deep inside a
	// slow boot and no records are flowing.
	if !opts.suppressHeartbeats && welcome.HeartbeatMS > 0 {
		go func() {
			tick := time.NewTicker(time.Duration(welcome.HeartbeatMS) * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if send(Msg{T: MsgHeartbeat}) != nil {
						return
					}
				}
			}
		}()
	}

	fail := func(err error) (*WorkerSummary, error) {
		if interrupted.Load() {
			return nil, campaign.ErrInterrupted
		}
		return nil, err
	}

	sum := &WorkerSummary{}
	for {
		if opts.Interrupt != nil {
			select {
			case <-opts.Interrupt:
				return nil, campaign.ErrInterrupted
			default:
			}
		}
		if err := send(Msg{T: MsgLease}); err != nil {
			return fail(fmt.Errorf("fleet: request lease: %w", err))
		}
		m, err := ReadMsg(nc)
		if err != nil {
			return fail(fmt.Errorf("fleet: coordinator %s: %w", addr, err))
		}
		switch m.T {
		case MsgDrain:
			logf("fleet: campaign drained; worker %q exiting after %d shards, %d records",
				name, sum.Shards, sum.Records)
			return sum, nil
		case MsgRetry:
			delay := time.Duration(m.DelayMS) * time.Millisecond
			if delay <= 0 {
				delay = DefaultRetryDelay
			}
			select {
			case <-time.After(delay):
			case <-opts.Interrupt:
				return nil, campaign.ErrInterrupted
			}
		case MsgGrant:
			n, err := runLease(spec, wl, m, send, batchSize, opts)
			sum.Records += n
			if err != nil {
				if errors.Is(err, campaign.ErrInterrupted) {
					return nil, campaign.ErrInterrupted
				}
				return fail(fmt.Errorf("fleet: shard %d: %w", m.Shard, err))
			}
			sum.Shards++
			logf("fleet: worker %q finished shard %d (%d records streamed)", name, m.Shard, n)
		case MsgReject:
			return nil, fmt.Errorf("fleet: coordinator %s dropped worker %q: %s", addr, name, m.Error)
		default:
			return nil, fmt.Errorf("fleet: coordinator %s sent unexpected %q frame to a worker", addr, m.T)
		}
	}
}

// runLease executes one granted shard: seed an in-memory store with the
// spec record plus everything the coordinator already holds for the
// shard, run the unmodified engine on just that shard, and stream every
// new result record back in batches.
func runLease(spec campaign.Spec, wl campaign.Workload, grant Msg,
	send func(Msg) error, batchSize int, opts WorkerOptions) (int, error) {
	mem := campaign.NewMemStore()
	if err := mem.Append(campaign.SpecRecord(spec)); err != nil {
		return 0, err
	}
	for _, r := range grant.Done {
		if err := mem.Append(r); err != nil {
			return 0, err
		}
	}
	tap := &tapStore{base: mem, shard: grant.Shard, send: send, batchSize: batchSize}
	_, err := campaign.Run(spec, wl, tap, campaign.Options{
		Workers:   opts.Workers,
		Shards:    []int{grant.Shard},
		Interrupt: opts.Interrupt,
	})
	if err != nil {
		tap.flush() // best effort: completed boots still reach the store
		return tap.sent, err
	}
	if err := tap.flush(); err != nil {
		return tap.sent, err
	}
	return tap.sent, send(Msg{T: MsgDone, Shard: grant.Shard})
}

// tapStore wraps the worker's in-memory store and streams every freshly
// appended result record to the coordinator in batches. The engine's
// worker goroutines call Append concurrently; the batch has its own
// lock, and frames go out under the shared connection send mutex.
type tapStore struct {
	base      *campaign.MemStore
	shard     int
	send      func(Msg) error
	batchSize int

	mu    sync.Mutex
	batch []campaign.Record
	sent  int
}

func (t *tapStore) Records() []campaign.Record { return t.base.Records() }
func (t *tapStore) Close() error               { return t.base.Close() }

func (t *tapStore) Append(r campaign.Record) error {
	if err := t.base.Append(r); err != nil {
		return err
	}
	if r.Kind != campaign.KindResult {
		return nil // spec/meta records are the coordinator's to write
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.batch = append(t.batch, r)
	if len(t.batch) >= t.batchSize {
		return t.flushLocked()
	}
	return nil
}

// flush streams any remaining batched records.
func (t *tapStore) flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushLocked()
}

func (t *tapStore) flushLocked() error {
	if len(t.batch) == 0 {
		return nil
	}
	batch := t.batch
	t.batch = nil
	if err := t.send(Msg{T: MsgRecords, Shard: t.shard, Records: batch}); err != nil {
		return err
	}
	t.sent += len(batch)
	return nil
}
