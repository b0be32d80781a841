package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
)

// campaignStatus renders a campaign Snapshot — live from a running
// run's -status-addr endpoint, or reconstructed offline from a JSONL
// store. The positional argument is disambiguated by existence: a path
// that exists on disk is a store, anything else is an address.
func campaignStatus(args []string) error {
	fs := flag.NewFlagSet("driverlab campaign status", flag.ContinueOnError)
	store := fs.String("store", "", "JSONL result store to reconstruct the snapshot from offline")
	addr := fs.String("addr", "", "status endpoint of a running campaign (host:port or URL)")
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	rest := fs.Args()
	switch {
	case *store != "" && *addr != "":
		return fmt.Errorf("campaign status: -store and -addr are mutually exclusive")
	case len(rest) > 1:
		return fmt.Errorf("campaign status: want one <addr|store>, got %d arguments", len(rest))
	case len(rest) == 1 && (*store != "" || *addr != ""):
		return fmt.Errorf("campaign status: give either -store/-addr or a positional <addr|store>, not both")
	case len(rest) == 1:
		if _, err := os.Stat(rest[0]); err == nil {
			return statusFromStore(rest[0])
		}
		return statusFromAddr(rest[0])
	case *store != "":
		return statusFromStore(*store)
	case *addr != "":
		return statusFromAddr(*addr)
	}
	return fmt.Errorf("campaign status: want an <addr|store> argument " +
		"(a running campaign's -status-addr, or a JSONL store)")
}

// statusFromStore reconstructs the snapshot offline from a store's
// records; rates, ETA and worker counts are unknowable there.
func statusFromStore(path string) error {
	st, err := campaign.OpenFile(path)
	if err != nil {
		return err
	}
	defer st.Close()
	snap := campaign.SnapshotFromRecords(st.Records())
	fmt.Print(formatSnapshot(*snap, "store "+path))
	return nil
}

// statusFromAddr fetches the live snapshot from a running campaign.
func statusFromAddr(addr string) error {
	snap, err := fetchSnapshot(addr)
	if err != nil {
		return err
	}
	fmt.Print(formatSnapshot(*snap, addr))
	return nil
}

// fetchSnapshot GETs and decodes /status from a campaign's
// observability endpoint. Bare ports (":9100") and host:port pairs are
// completed to full URLs.
func fetchSnapshot(addr string) (*campaign.Snapshot, error) {
	url := addr
	if !strings.Contains(url, "://") {
		if strings.HasPrefix(url, ":") {
			url = "127.0.0.1" + url
		}
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + "/status"
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("campaign status: nothing answered at %s: %w\n"+
			"  start a campaign with `driverlab campaign run -status-addr`, a fleet\n"+
			"  coordinator with `driverlab serve -status-addr` (workers join it with\n"+
			"  `driverlab worker -connect`), or point at a JSONL store for an offline view",
			url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("campaign status: %s returned %s", url, resp.Status)
	}
	var snap campaign.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("campaign status: decoding %s: %w", url, err)
	}
	return &snap, nil
}

// formatSnapshot renders the one status shape every surface shares.
// The /status JSON, this view and the run progress line all read the
// same campaign.Snapshot, so they cannot drift apart.
func formatSnapshot(s campaign.Snapshot, source string) string {
	var b strings.Builder
	mode := "offline"
	if s.Live {
		mode = "live"
	}
	fmt.Fprintf(&b, "campaign %q (%s, %s)\n", s.Name, mode, source)
	if s.Live {
		fmt.Fprintf(&b, "  workers %d, elapsed %s\n", s.Workers, fmtSeconds(s.ElapsedSec))
	}
	if f := s.Fleet; f != nil {
		fmt.Fprintf(&b, "  fleet: %d workers connected, shards %d/%d complete (%d leased), %d leases (%d re-leased)\n",
			f.Workers, f.ShardsComplete, f.ShardsTotal, f.ShardsLeased, f.Leases, f.Releases)
		if f.RejectedFrames > 0 || f.StaleRecords > 0 {
			fmt.Fprintf(&b, "  fleet health: %d rejected frames, %d stale records dropped\n",
				f.RejectedFrames, f.StaleRecords)
		}
	}
	fmt.Fprintf(&b, "  progress: %d/%d recorded (%.1f%%) — %d booted, %d skipped\n",
		s.Recorded, s.Total, s.Percent(), s.Ran, s.Skipped)
	if s.Panics > 0 {
		fmt.Fprintf(&b, "  panics: %d (harness panics recovered and quarantined)\n", s.Panics)
	}
	if s.BootsPerSec > 0 {
		fmt.Fprintf(&b, "  rate: %.1f boots/s", s.BootsPerSec)
		if s.ETASec > 0 {
			fmt.Fprintf(&b, ", ETA %s", fmtSeconds(s.ETASec))
		}
		b.WriteByte('\n')
	}
	for _, d := range s.Drivers {
		fmt.Fprintf(&b, "  driver %-16s %5d/%-5d recorded, %d booted",
			d.Driver, d.Recorded, d.Selected, d.Ran)
		if d.BootsPerSec > 0 {
			fmt.Fprintf(&b, ", %.1f boots/s", d.BootsPerSec)
		}
		b.WriteByte('\n')
	}
	if len(s.Shards) > 0 {
		parts := make([]string, len(s.Shards))
		for i, sh := range s.Shards {
			if sh.Planned > 0 {
				parts[i] = fmt.Sprintf("%d: %d/%d", sh.Shard, sh.Recorded, sh.Planned)
			} else {
				parts[i] = fmt.Sprintf("%d: %d", sh.Shard, sh.Recorded)
			}
		}
		fmt.Fprintf(&b, "  shards: %s\n", strings.Join(parts, ", "))
	}
	if len(s.Outcomes) > 0 {
		rows := make([]string, 0, len(s.Outcomes))
		for row := range s.Outcomes {
			rows = append(rows, row)
		}
		sort.Strings(rows)
		parts := make([]string, len(rows))
		for i, row := range rows {
			parts[i] = fmt.Sprintf("%s %d", row, s.Outcomes[row])
		}
		fmt.Fprintf(&b, "  outcomes: %s\n", strings.Join(parts, ", "))
	}
	return b.String()
}

// progressLine renders the one-line live progress of a snapshot,
// clamped to width so a terminal narrower than the line never wraps
// (wrapping leaves the \r-rewritten line garbled).
func progressLine(s campaign.Snapshot, width int) string {
	line := fmt.Sprintf("campaign: %d/%d recorded (%.1f%%", s.Recorded, s.Total, s.Percent())
	if s.BootsPerSec > 0 {
		line += fmt.Sprintf(", %.1f boots/s", s.BootsPerSec)
	}
	if s.ETASec > 0 {
		line += ", ETA " + fmtSeconds(s.ETASec)
	}
	line += ")"
	if width > 0 && len(line) > width-1 {
		line = line[:width-1]
	}
	return line
}

// drawProgress redraws the live progress line from tracker's snapshot on
// its own goroutine, every 200ms, for `campaign run` and `serve` alike.
// The returned stop ends the goroutine, draws the line a last time and
// ends it, so what the command prints next starts on a line of its own.
// Off (-quiet), it draws nothing and stop does nothing.
func drawProgress(tracker *campaign.StatusTracker, on bool) (stop func()) {
	if !on {
		return func() {}
	}
	width := termWidth()
	draw := func() { fmt.Fprintf(os.Stderr, "\r%s\x1b[K", progressLine(tracker.Snapshot(), width)) }
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				draw()
			}
		}
	}()
	return func() {
		close(quit)
		<-exited
		draw()
		fmt.Fprintln(os.Stderr)
	}
}

// termWidth reads the terminal width from $COLUMNS (the shell
// convention; the CLI takes no termios dependency), defaulting to 80.
func termWidth() int {
	if c, err := strconv.Atoi(os.Getenv("COLUMNS")); err == nil && c > 0 {
		return c
	}
	return 80
}

// fmtSeconds renders a float second count compactly ("1m23s").
func fmtSeconds(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(time.Second).String()
}
