// Store glues the WAL and snapshot halves into the pluggable
// persistence layer the engine journals to (it implements
// engine.Journal) and recovers from:
//
//	store, _ := durable.Open(durable.Options{Dir: dir, Clock: clock})
//	eng := engine.New(engine.Config{..., Journal: store})
//	store.Restore(eng) // attach recovered subscriptions, seed retention
//	store.Start()      // periodic snapshot + WAL compaction loop
//	...
//	store.Close()      // stop loop, final snapshot, release the log
//
// Recovery (inside Open) loads the newest readable snapshot and replays
// the WAL tail through the model of model.go; Restore attaches the
// result in sorted-key order, so two recoveries from the same directory
// into same-seeded engines are identical — schedules, RNG streams,
// dedup windows, and all.
package durable

import (
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// DefaultSnapshotInterval is the periodic snapshot cadence.
const DefaultSnapshotInterval = 5 * time.Minute

// Options configures a Store.
type Options struct {
	// Dir is the persistence root; created if missing. One directory
	// belongs to one engine.
	Dir string
	// Clock paces the snapshot loop (virtual in experiments). Required.
	Clock simtime.Clock
	// Coalesce must match the engine's Config.Coalesce: replaying
	// install records derives subscription keys with it. Open fails on a
	// snapshot taken under the other mode.
	Coalesce bool
	// SnapshotInterval is the cadence of Start's snapshot loop; zero
	// means DefaultSnapshotInterval.
	SnapshotInterval time.Duration
	// SegmentBytes bounds one WAL segment file; zero means
	// DefaultSegmentBytes.
	SegmentBytes int64
	// Fsync forces an fsync per append: durability against machine
	// crashes, not just process death, at a large throughput cost.
	Fsync bool
	// Logger receives warnings; nil disables logging.
	Logger *slog.Logger
	// Metrics, when non-nil, receives the store's counters and gauges.
	Metrics *obs.Registry
}

// Store is a durable journal plus its recovered state. All methods are
// safe for concurrent use; Restore/Start/Snapshot/Close expect the
// single-owner lifecycle shown in the package example.
type Store struct {
	opts     Options
	interval time.Duration
	wal      *wal

	// Recovered state, produced by Open and consumed by Restore.
	subs    []*engine.SubscriptionSnapshot
	retired []engine.RetiredDedup

	eng       *engine.Engine
	restoring atomic.Bool
	stop      simtime.Stopper
	done      simtime.Gate
	started   bool
	closed    atomic.Bool

	snapshots atomic.Int64
	snapSeq   atomic.Int64
}

// Open opens (creating if needed) the persistence directory, recovers
// its newest snapshot plus WAL tail, and returns a store ready to serve
// as an engine's Journal.
func Open(opts Options) (*Store, error) {
	if opts.Clock == nil {
		return nil, fmt.Errorf("durable: Clock is required")
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("durable: Dir is required")
	}
	s := &Store{opts: opts, interval: opts.SnapshotInterval}
	if s.interval <= 0 {
		s.interval = DefaultSnapshotInterval
	}
	snap, snapFile, err := loadSnapshot(opts.Dir)
	if err != nil {
		return nil, err
	}
	var snapSeq uint64
	if snap != nil {
		if snap.Coalesce != opts.Coalesce {
			return nil, fmt.Errorf("durable: snapshot in %s was taken with coalesce=%v, store opened with coalesce=%v",
				opts.Dir, snap.Coalesce, opts.Coalesce)
		}
		snapSeq = snap.WALSeq
	}
	w, records, err := openWAL(opts.Dir, opts.Fsync, opts.SegmentBytes, snapSeq)
	if err != nil {
		return nil, err
	}
	s.wal = w

	m := newModel(opts.Coalesce)
	if snap != nil {
		m.loadSnapshot(snap)
	}
	replayed := 0
	for _, rec := range records {
		if rec.Seq <= snapSeq {
			continue
		}
		m.apply(rec)
		replayed++
	}
	s.subs, s.retired = m.export()
	s.snapSeq.Store(int64(snapSeq))
	if opts.Logger != nil {
		applets := 0
		for _, ss := range s.subs {
			applets += len(ss.Members)
		}
		opts.Logger.Info("durable store opened", "dir", opts.Dir,
			"snapshot", snapFile, "snapshot_seq", snapSeq, "wal_records_replayed", replayed,
			"subscriptions", len(s.subs), "applets", applets)
	}
	if reg := opts.Metrics; reg != nil {
		reg.CounterFunc("ifttt_wal_records_total",
			"Records appended to the durability write-ahead log.",
			func() int64 { s.wal.mu.Lock(); defer s.wal.mu.Unlock(); return s.wal.records })
		reg.CounterFunc("ifttt_wal_appended_bytes_total",
			"Bytes appended to the durability write-ahead log (frames included).",
			func() int64 { s.wal.mu.Lock(); defer s.wal.mu.Unlock(); return s.wal.bytes })
		reg.CounterFunc("ifttt_snapshots_written_total",
			"Durability snapshots written.",
			s.snapshots.Load)
		reg.GaugeFunc("ifttt_snapshot_wal_seq",
			"WAL sequence number covered by the newest durability snapshot.",
			func() float64 { return float64(s.snapSeq.Load()) })
		reg.GaugeFunc("ifttt_wal_disk_bytes",
			"Current size of the live WAL segments on disk.",
			func() float64 { return float64(s.wal.sizeOnDisk()) })
	}
	return s, nil
}

// Image is a persistence directory as recovery reads it, read without
// changing anything: the snapshot Open would load and every WAL record
// before the first torn or corrupt frame, oldest first (Open replays
// those after the snapshot's seq).
type Image struct {
	SnapshotFile string // base name; empty when there is no snapshot
	Snapshot     *Snapshot
	Records      []Record
}

// Inspect reads dir's snapshot and log read-only (cmd/waldump prints
// them). It fails where Open would on an unknown format version.
func Inspect(dir string) (*Image, error) {
	snap, name, err := loadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	l, err := scanLog(dir)
	if err != nil {
		return nil, err
	}
	return &Image{SnapshotFile: name, Snapshot: snap, Records: l.records()}, nil
}

// RecoveredState returns what Open reconstructed: attach-ready
// subscription snapshots sorted by key, and the retained dedup windows
// of removed applets. Callers normally just use Restore; tests compare
// this against expectations.
func (s *Store) RecoveredState() ([]*engine.SubscriptionSnapshot, []engine.RetiredDedup) {
	return s.subs, s.retired
}

// RecoveredCounts reports the recovered subscription and applet counts.
func (s *Store) RecoveredCounts() (subs, applets int) {
	for _, ss := range s.subs {
		applets += len(ss.Members)
	}
	return len(s.subs), applets
}

// Restore attaches the recovered state to eng and binds the store to it
// for snapshots. The engine should have been built with this store as
// its Journal; journaling is suppressed during the restore (the state
// being attached is already durable). Call before the engine receives
// traffic.
func (s *Store) Restore(eng *engine.Engine) error {
	s.restoring.Store(true)
	defer s.restoring.Store(false)
	for _, ss := range s.subs {
		if err := eng.AttachSubscription(ss); err != nil {
			return fmt.Errorf("durable: restore %q: %w", ss.Key, err)
		}
	}
	eng.SeedRetiredDedup(s.retired)
	s.eng = eng
	return nil
}

// Start launches the periodic snapshot loop. Restore must have run
// (even on an empty directory — it binds the engine).
func (s *Store) Start() {
	if s.eng == nil {
		panic("durable: Start before Restore")
	}
	if s.started {
		return
	}
	s.started = true
	clock := s.opts.Clock
	s.stop = clock.NewStopper()
	s.done = clock.NewGate()
	clock.Go(func() {
		defer s.done.Open()
		for clock.SleepOrStop(s.stop, s.interval) {
			if err := s.Snapshot(); err != nil && s.opts.Logger != nil {
				s.opts.Logger.Warn("snapshot failed", "err", err)
			}
		}
	})
}

// Snapshot writes a full-state image now and compacts the WAL behind
// it. Safe while the engine is live (see snapshot.go's consistency
// argument) and after it stopped.
func (s *Store) Snapshot() error {
	if s.eng == nil {
		return fmt.Errorf("durable: no engine bound")
	}
	seq := s.wal.lastSeq()
	snap := &Snapshot{
		WALSeq:   seq,
		Coalesce: s.opts.Coalesce,
		Subs:     s.eng.ExportSubscriptions(),
		Retired:  s.eng.ExportRetiredDedup(),
	}
	if err := writeSnapshot(s.opts.Dir, snap); err != nil {
		return err
	}
	s.snapshots.Add(1)
	s.snapSeq.Store(int64(seq))
	return s.wal.compact(seq)
}

// Close stops the snapshot loop, writes a final image (so a clean
// restart replays nothing), and releases the log. For crash testing use
// Abandon instead.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.started {
		s.stop.Stop()
		s.done.Wait()
	}
	var err error
	if s.eng != nil {
		err = s.Snapshot()
	}
	if cerr := s.wal.close(); err == nil {
		err = cerr
	}
	return err
}

// Abandon releases the log without a final snapshot, leaving the
// directory exactly as a crash would: the newest periodic snapshot plus
// the WAL tail. Tests use it to simulate kill -9 in-process.
func (s *Store) Abandon() error {
	if s.closed.Swap(true) {
		return nil
	}
	if s.started {
		s.stop.Stop()
		s.done.Wait()
	}
	return s.wal.close()
}

// WALSeq returns the journal's last assigned sequence number.
func (s *Store) WALSeq() uint64 { return s.wal.lastSeq() }

// WALSizeOnDisk returns the live segments' total bytes.
func (s *Store) WALSizeOnDisk() int64 { return s.wal.sizeOnDisk() }

// Snapshots returns how many snapshot images this store has written.
func (s *Store) Snapshots() int64 { return s.snapshots.Load() }

// --- engine.Journal ---
//
// Each append encodes its arguments into the WAL's buffer during the
// call and keeps nothing: the engine may reuse them as soon as it
// returns. Conditions are never encoded, so nothing needs scrubbing.

// AppendInstall implements engine.Journal.
func (s *Store) AppendInstall(a engine.Applet) error {
	if s.restoring.Load() {
		return nil
	}
	return s.wal.append(&Record{Op: OpInstall, Applet: &a})
}

// AppendRemove implements engine.Journal.
func (s *Store) AppendRemove(id string) error {
	if s.restoring.Load() {
		return nil
	}
	return s.wal.append(&Record{Op: OpRemove, ID: id})
}

// AppendCheckpoint implements engine.Journal.
func (s *Store) AppendCheckpoint(cp engine.Checkpoint) error {
	if s.restoring.Load() {
		return nil
	}
	return s.wal.append(&Record{Op: OpCheckpoint, Checkpoint: &cp})
}

// AppendAttach implements engine.Journal.
func (s *Store) AppendAttach(snap *engine.SubscriptionSnapshot) error {
	if s.restoring.Load() {
		return nil
	}
	return s.wal.append(&Record{Op: OpAttach, Attach: snap})
}

// AppendDetach implements engine.Journal.
func (s *Store) AppendDetach(key string, appletIDs []string) error {
	if s.restoring.Load() {
		return nil
	}
	return s.wal.append(&Record{Op: OpDetach, Key: key, AppletIDs: appletIDs})
}
