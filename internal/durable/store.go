// Store glues the WAL and snapshot halves into the pluggable
// persistence layer the engine journals to (it implements
// engine.Journal) and recovers from. OpenEngine stands a durable engine
// up in one call; it runs these steps:
//
//	store, _ := durable.Open(durable.Options{Dir: dir, Clock: clock})
//	eng := engine.New(engine.Config{..., Journal: store})
//	store.Restore(eng) // replay the snapshot image and the WAL tail into eng
//	store.Start()      // periodic snapshot + WAL compaction loop
//	...
//	store.Close()      // stop loop, final snapshot, release the log
//
// Open loads the newest readable snapshot and the WAL records after it;
// Restore replays both through the engine's own lifecycle code inside
// an engine replay window (Engine.Replay): the image's subscriptions
// attach in key order, then each tail record applies in log order. Two
// recoveries from the same directory into same-seeded engines are
// therefore identical — schedules, RNG streams, dedup windows, and all.
package durable

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
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

	// What Open loaded and Restore replays: the snapshot image (nil
	// when there is none) and the WAL records after it.
	image *Snapshot
	tail  []Record

	eng     *engine.Engine
	stop    simtime.Stopper
	done    simtime.Gate
	started bool
	closed  atomic.Bool

	snapshots atomic.Int64
	snapSeq   atomic.Int64
}

// Open opens (creating if needed) the persistence directory, loads its
// newest snapshot plus WAL tail for Restore, and returns a store ready
// to serve as an engine's Journal.
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
	snap, _, err := loadSnapshot(opts.Dir)
	if err != nil {
		return nil, err
	}
	var snapSeq uint64
	if snap != nil {
		snapSeq = snap.WALSeq
	}
	w, records, err := openWAL(opts.Dir, opts.Fsync, opts.SegmentBytes, snapSeq)
	if err != nil {
		return nil, err
	}
	s.wal, s.image = w, snap
	s.tail = slices.DeleteFunc(records, func(r Record) bool { return r.Seq <= snapSeq })
	s.snapSeq.Store(int64(snapSeq))
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
		reg.GaugeFunc("ifttt_wal_replay_records",
			"WAL records after the newest durability snapshot: what a restart replays.",
			func() float64 {
				// Read the snapshot's seq first: the log's only grows
				// past it, so the difference cannot wrap.
				snap := uint64(s.snapSeq.Load())
				return float64(s.wal.lastSeq() - snap)
			})
		reg.GaugeFunc("ifttt_wal_disk_bytes",
			"Current size of the live WAL segments on disk.",
			func() float64 { return float64(s.wal.sizeOnDisk()) })
	}
	return s, nil
}

// OpenEngine opens the store at opts.Dir, builds an engine from cfg
// journaling to it, replays the directory into that engine, and starts
// the snapshot loop. The store's Clock, Metrics and Logger are cfg's, so
// its series land in the engine's registry. On error it releases what it
// opened, though the registry keeps any series already registered.
func OpenEngine(cfg engine.Config, opts Options) (*engine.Engine, *Store, error) {
	opts.Clock, opts.Metrics, opts.Logger = cfg.Clock, cfg.Metrics, cfg.Logger
	st, err := Open(opts)
	if err != nil {
		return nil, nil, err
	}
	cfg.Journal = st
	eng := engine.New(cfg)
	if err := st.Restore(eng); err != nil {
		eng.Stop()
		st.Abandon()
		return nil, nil, err
	}
	st.Start()
	return eng, st, nil
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

// RecoveredCounts reports the bound engine's subscription and applet
// counts: right after Restore, what recovery produced.
func (s *Store) RecoveredCounts() (subs, applets int) {
	if s.eng == nil {
		return 0, 0
	}
	st := s.eng.Stats()
	return st.Subscriptions, st.Applets
}

// Restore replays what Open loaded into eng, inside an engine replay
// window (Engine.Replay), and binds the store to eng for snapshots: the
// image's subscriptions attach in key order (ExportSubscriptions sorts
// them) and its retired windows seed the engine, then each tail record
// applies in log order through the engine's lifecycle methods. A record
// whose effect the image already holds applies as a no-op. It fails on
// an image taken under the other Config.Coalesce mode, whose keys eng
// would not derive. The engine should have been built with this store
// as its Journal; call before it receives traffic.
func (s *Store) Restore(eng *engine.Engine) error {
	if s.image != nil && s.image.Coalesce != eng.Coalesce() {
		return fmt.Errorf("durable: snapshot in %s was taken with coalesce=%v, engine runs with coalesce=%v",
			s.opts.Dir, s.image.Coalesce, eng.Coalesce())
	}
	var attached, noops int
	var attachS, replayS float64
	err := eng.Replay(func() error {
		t0 := time.Now()
		if snap := s.image; snap != nil {
			for _, ss := range snap.Subs {
				if err := eng.AttachSubscription(ss); err == nil {
					attached++
				} else if !errors.Is(err, engine.ErrNoChange) {
					return fmt.Errorf("durable: restore %q: %w", ss.Key, err)
				}
			}
			eng.SeedRetiredDedup(snap.Retired)
		}
		t1 := time.Now()
		attachS = t1.Sub(t0).Seconds()
		for i := range s.tail {
			err := apply(eng, &s.tail[i])
			if errors.Is(err, engine.ErrNoChange) {
				noops++
			} else if err != nil {
				return fmt.Errorf("durable: replay record %d: %w", s.tail[i].Seq, err)
			}
		}
		replayS = time.Since(t1).Seconds()
		return nil
	})
	if err != nil {
		return err
	}
	s.eng = eng
	if s.opts.Logger != nil {
		subs, applets := s.RecoveredCounts()
		s.opts.Logger.Info("durable store recovered", "dir", s.opts.Dir, "snapshot_seq", s.snapSeq.Load(),
			"image_subscriptions", attached, "wal_records_replayed", len(s.tail), "wal_records_noop", noops,
			"subscriptions", subs, "applets", applets, "attach_s", attachS, "replay_s", replayS)
	}
	s.image, s.tail = nil, nil
	return nil
}

// apply replays one WAL record through eng's lifecycle methods. A
// record without its payload changes nothing.
func apply(eng *engine.Engine, rec *Record) error {
	switch {
	case rec.Op == OpInstall && rec.Applet != nil:
		return eng.Install(*rec.Applet)
	case rec.Op == OpRemove:
		return eng.Remove(rec.ID)
	case rec.Op == OpCheckpoint && rec.Checkpoint != nil:
		return eng.ApplyCheckpoint(*rec.Checkpoint)
	case rec.Op == OpAttach && rec.Attach != nil:
		return eng.AttachSubscription(rec.Attach)
	case rec.Op == OpDetach:
		if snap, err := eng.DetachSubscription(rec.Key); snap != nil || err != nil {
			return err
		}
	}
	return engine.ErrNoChange
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
		Coalesce: s.eng.Coalesce(),
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
	return s.wal.append(&Record{Op: OpInstall, Applet: &a})
}

// AppendRemove implements engine.Journal.
func (s *Store) AppendRemove(id string) error {
	return s.wal.append(&Record{Op: OpRemove, ID: id})
}

// AppendCheckpoint implements engine.Journal.
func (s *Store) AppendCheckpoint(cp engine.Checkpoint) error {
	return s.wal.append(&Record{Op: OpCheckpoint, Checkpoint: &cp})
}

// AppendAttach implements engine.Journal.
func (s *Store) AppendAttach(snap *engine.SubscriptionSnapshot) error {
	return s.wal.append(&Record{Op: OpAttach, Attach: snap})
}

// AppendDetach implements engine.Journal.
func (s *Store) AppendDetach(key string, appletIDs []string) error {
	return s.wal.append(&Record{Op: OpDetach, Key: key, AppletIDs: appletIDs})
}
