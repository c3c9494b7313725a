package timingd

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"

	"newgame/internal/pack"
	"newgame/internal/serve"
)

// LogName is the epoch log's filename inside the snapshot directory.
const LogName = "epochs.log"

// snapshotInfo is the boot-time provenance healthz reports.
type snapshotInfo struct {
	dir           string
	restoredFrom  string
	snapshotEpoch int64
	logReplayed   int
}

// applyRestore overwrites the boot inputs with the snapshot's state, so
// the rest of NewServer builds from decoded bytes instead of text-parsed
// or generated state.
func (c *Config) applyRestore() {
	snap := c.Restore
	c.Design = snap.Design
	c.Recipe = *snap.Recipe
	c.Stack = snap.Stack
	c.ClockPort = snap.ClockPort
	c.BasePeriod = snap.BasePeriod
	c.InputArrival = snap.InputArrival
	c.Seed = snap.Seed
}

// recoverLog replays the epoch log's tail onto the freshly built sessions
// and opens it for appending. Records at or before the boot epoch (already
// inside the restored snapshot) are kept as history; each later record must
// advance the epoch by exactly one — a gap means the log belongs to a
// different timeline and the boot fails rather than serve wrong state.
// A torn tail (crash mid-append) and records beyond RestoreToEpoch are
// dropped by atomically rewriting the log to the retained prefix, so the
// reopened log's on-disk history is exactly what the server replayed.
func (s *Server) recoverLog() error {
	logPath := filepath.Join(s.cfg.SnapshotDir, LogName)
	recs, truncated, err := pack.ReadLog(logPath)
	if err != nil {
		return fmt.Errorf("timingd: reading epoch log: %w", err)
	}
	rewrite := truncated
	var kept []pack.EpochRecord
	for _, rec := range recs {
		if rec.Epoch <= s.snap.snapshotEpoch {
			kept = append(kept, rec)
			continue
		}
		if s.cfg.RestoreToEpoch > 0 && rec.Epoch > s.cfg.RestoreToEpoch {
			rewrite = true
			break
		}
		if want := s.epoch.Load() + 1; rec.Epoch != want {
			return fmt.Errorf("timingd: epoch log gap: have epoch %d, next record is %d", want-1, rec.Epoch)
		}
		if _, err := s.commit(context.Background(), rec.Ops); err != nil {
			return fmt.Errorf("timingd: replaying epoch %d: %w", rec.Epoch, err)
		}
		kept = append(kept, rec)
		s.snap.logReplayed++
	}
	if rewrite {
		if err := pack.RewriteLog(logPath, kept); err != nil {
			return fmt.Errorf("timingd: rewriting epoch log: %w", err)
		}
	}
	wal, err := pack.OpenLog(logPath)
	if err != nil {
		return fmt.Errorf("timingd: opening epoch log: %w", err)
	}
	s.wal = wal
	return nil
}

// logCommit appends a committed epoch to the log. Append failures don't
// fail the commit — it is already visible — but they are latched for
// healthz: an operator must know the crash-recovery trail went cold.
func (s *Server) logCommit(epoch int64, ops []Op) {
	if s.wal == nil {
		return
	}
	if err := s.wal.Append(pack.EpochRecord{Epoch: epoch, Ops: ops}); err != nil {
		msg := err.Error()
		s.walErr.Store(&msg)
		s.count("timingd.wal.errors")
		return
	}
	s.walAppended.Add(1)
}

// save snapshots the full resident state at the current epoch into
// SnapshotDir as epoch-<N>.pack. It serializes against the writer (the
// shadow is bit-identical to the served snapshot between writer operations,
// so encoding the shadow never blocks readers).
func (s *Server) save() (*SaveReport, error) {
	if s.cfg.SnapshotDir == "" {
		return nil, serve.BadRequest("snapshot persistence disabled: server started without a snapshot directory")
	}
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	if s.degraded.Load() {
		return nil, fmt.Errorf("server degraded by earlier failed commit; refusing to snapshot")
	}
	sh := s.shadow
	sh.mu.Lock()
	defer sh.mu.Unlock()
	epoch := s.epoch.Load()
	snap := &pack.Snapshot{
		Design:       sh.views.D,
		Recipe:       &s.cfg.Recipe,
		Stack:        s.cfg.Stack,
		ClockPort:    s.cfg.ClockPort,
		BasePeriod:   s.cfg.BasePeriod,
		InputArrival: s.cfg.InputArrival,
		Seed:         s.cfg.Seed,
		Epoch:        epoch,
		Topology:     sh.views.Topology(),
		Parasitics:   s.trees,
	}
	path := filepath.Join(s.cfg.SnapshotDir, fmt.Sprintf("epoch-%06d.pack", epoch))
	n, err := pack.Save(path, snap)
	if err != nil {
		return nil, err
	}
	s.count("timingd.snapshots")
	return &SaveReport{Path: path, Epoch: epoch, Bytes: n}, nil
}

func (s *Server) handleSave(ctx context.Context, _ *http.Request) ([]byte, error) {
	rep, err := s.save()
	if err != nil {
		return nil, err
	}
	serve.InfoFrom(ctx).Epoch = rep.Epoch
	return serve.JSON(rep)
}

// snapshotHealth renders the provenance block for /healthz, nil when
// snapshot persistence is off.
func (s *Server) snapshotHealth() *SnapshotHealth {
	if s.cfg.SnapshotDir == "" && s.snap.restoredFrom == "" {
		return nil
	}
	h := &SnapshotHealth{
		Dir:           s.cfg.SnapshotDir,
		RestoredFrom:  s.snap.restoredFrom,
		SnapshotEpoch: s.snap.snapshotEpoch,
		LogReplayed:   s.snap.logReplayed,
		LogAppended:   s.walAppended.Load(),
	}
	if msg := s.walErr.Load(); msg != nil {
		h.LogError = *msg
	}
	return h
}
