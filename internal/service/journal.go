package service

// The durability layer: when Config.DataDir is set, every job lifecycle
// transition and every completed ligand is journaled to one append-only
// WAL (internal/wal) before the service acts on it. On the next boot over
// the same data dir the journal is replayed: the job table is rebuilt,
// terminal jobs keep their results, each job's completed-ligand records
// become its partial set and its resume state again, and jobs that were
// queued or running at the crash are re-enqueued — a re-run re-docks only
// the ligands without a record, with a final ranking byte-identical to an
// uninterrupted run.
//
// Layout under DataDir:
//
//	journal/seg-%08d.wal   CRC-framed JSON job events (see jobEvent): one
//	                       record per lifecycle transition, plus one
//	                       compact "ligand" record (a core.LigandRecord)
//	                       per completed ligand
//
// Making a ligand durable therefore costs one small append (and, under
// wal.SyncAlways, one fsync) whatever the size of its job. Lifecycle
// events are last-write-wins per job and a snapshot record resets the
// job's ligand set before its live records follow it, which is what makes
// journal compaction crash-safe: a replay of old events followed by the
// compacted snapshot converges on the snapshot.

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"syscall"
	"time"

	"github.com/metascreen/metascreen/internal/admission"
	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/wal"
)

// Event types. Unknown types are skipped on replay so newer journals
// degrade gracefully under older binaries.
const (
	evSubmitted = "submitted" // job admitted: request + idempotency key
	evStarted   = "started"   // a worker claimed the job
	evAttempt   = "attempt"   // one execution attempt finished (with error, if any)
	evLigand    = "ligand"    // one ligand completed (core.LigandRecord)
	evCancel    = "cancel"    // a cancel was requested for a running job
	evTerminal  = "terminal"  // the job reached a terminal state (full snapshot)
	evSnapshot  = "snapshot"  // compaction record: full job snapshot; its ligand records follow
)

// jobEvent is one journal record. Which fields are set depends on Type;
// terminal and snapshot events carry the whole JobView so replay needs no
// other source of truth.
type jobEvent struct {
	Type    string             `json:"type"`
	Job     string             `json:"job,omitempty"`
	Time    time.Time          `json:"time,omitempty"`
	Request *ScreenRequest     `json:"request,omitempty"`
	IdemKey string             `json:"idem_key,omitempty"`
	Attempt int                `json:"attempt,omitempty"`
	Error   string             `json:"error,omitempty"`
	Ligand  *core.LigandRecord `json:"ligand,omitempty"`
	View    *JobView           `json:"view,omitempty"`
}

// RecoveryStats reports what a boot over an existing data dir recovered.
type RecoveryStats struct {
	// ReplayedRecords is the number of journal records applied.
	ReplayedRecords int `json:"replayed_records"`
	// RecoveredJobs is the number of non-terminal jobs re-enqueued.
	RecoveredJobs int `json:"recovered_jobs"`
	// TruncatedBytes counts journal bytes dropped as a torn/corrupt tail.
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
}

// openJournal opens the WAL, replays it into the job table, and re-enqueues
// every job that was queued or running when the previous process died.
// Called from New before the workers start, so no lock is needed.
func (s *Service) openJournal() error {
	j, info, err := wal.Open(filepath.Join(s.cfg.DataDir, "journal"), wal.Options{
		Policy:       s.cfg.Fsync,
		SyncInterval: s.cfg.FsyncInterval,
		Logf:         func(format string, args ...any) { s.log.Warn(fmt.Sprintf(format, args...)) },
		FS:           s.cfg.FS,
		OnIOError:    func(op string, err error) { s.metrics.walIOErrors.Inc(op) },
	})
	if err != nil {
		return err
	}
	s.recovery.TruncatedBytes = info.TruncatedBytes

	err = j.Replay(func(rec []byte) error {
		var ev jobEvent
		if uerr := json.Unmarshal(rec, &ev); uerr != nil {
			// A record that framed correctly but no longer parses is
			// skipped, not fatal: replay keeps every applicable event.
			s.metrics.journalErrors.Inc()
			return nil
		}
		s.applyEvent(ev)
		s.recovery.ReplayedRecords++
		return nil
	})
	if err != nil {
		j.Close()
		return err
	}

	// Re-enqueue interrupted jobs in submission order, honouring cancels
	// journaled before the crash. The queue must admit all of them
	// regardless of the configured bound, so size it up front (workers
	// have not started; pushes cannot block).
	var pending, cancelled []*Job
	for _, id := range s.order {
		switch j := s.jobs[id]; {
		case j.state == StateDone && len(j.records) == 0 && j.restored != nil:
			// Compaction keeps only the terminal snapshot of a finished
			// job; its ranking stands in for the ligand records (without
			// per-ligand work counters) so /partial still serves it.
			j.records = rankingRecords(j.restored)
		case j.state.Terminal():
		case j.cancelRequested:
			cancelled = append(cancelled, j)
		default:
			pending = append(pending, j)
		}
	}
	if len(pending) > s.cfg.QueueDepth {
		s.queue = newJobQueue(len(pending))
	}
	for _, job := range pending {
		job.state = StateQueued
		job.started = time.Time{}
		job.cancel = nil
		// The admission state is rebuilt from the request: the priority
		// class survives replay and the deadline stays anchored to the
		// original submission time.
		job.class, _ = admission.ParseClass(job.req.Priority)
		job.deadline = time.Time{}
		if job.req.DeadlineSeconds > 0 && !job.submitted.IsZero() {
			job.deadline = job.submitted.Add(
				time.Duration(job.req.DeadlineSeconds * float64(time.Second)))
		}
		if err := s.queue.tryPush(job); err != nil {
			j.Close()
			return fmt.Errorf("service: re-enqueue %s: %w", job.id, err)
		}
		s.recovery.RecoveredJobs++
	}
	s.metrics.Recovered(s.recovery.ReplayedRecords, s.recovery.RecoveredJobs, s.recovery.TruncatedBytes)
	s.journal = j
	// Cancelled-but-not-terminal jobs finish now, with the journal open so
	// the terminal record survives the next restart too.
	for _, job := range cancelled {
		s.finishLocked(job, StateCancelled, nil, "cancelled before restart")
	}
	return nil
}

// applyEvent folds one journal record into the in-memory job table.
// Events are last-write-wins per job; unknown types are ignored.
func (s *Service) applyEvent(ev jobEvent) {
	switch ev.Type {
	case evSubmitted:
		j := s.jobFor(ev.Job)
		if ev.Request != nil {
			j.req = *ev.Request
		}
		j.state = StateQueued
		j.submitted = ev.Time
		j.idemKey = ev.IdemKey
		if ev.IdemKey != "" {
			s.idem[ev.IdemKey] = j.id
		}
	case evStarted:
		j := s.jobFor(ev.Job)
		j.state = StateRunning
		j.started = ev.Time
		j.attempts = ev.Attempt
	case evAttempt:
		j := s.jobFor(ev.Job)
		j.attempts = ev.Attempt
		j.lastErr = ev.Error
	case evLigand:
		if ev.Ligand != nil {
			j := s.jobFor(ev.Job)
			j.records = append(j.records, *ev.Ligand)
		}
	case evCancel:
		// The cancel may not have produced a terminal record before the
		// crash; remember the intent so recovery finishes the job as
		// cancelled instead of resurrecting it.
		s.jobFor(ev.Job).cancelRequested = true
	case evTerminal:
		if ev.View != nil {
			s.applyView(ev.View)
		}
	case evSnapshot:
		if ev.View != nil {
			// The job's live ligand records follow its snapshot; anything
			// replayed before it is history the snapshot supersedes.
			s.applyView(ev.View)
			s.jobs[ev.View.ID].records = nil
		}
	}
}

// rankingRecords rebuilds ligand records from a journaled ranking. Only
// the pose score and spot survive; work counters read zero.
func rankingRecords(rv *ResultView) []core.LigandRecord {
	recs := make([]core.LigandRecord, len(rv.Ranking))
	for i, e := range rv.Ranking {
		recs[i] = core.LigandRecord{Name: e.Ligand, Atoms: e.Atoms,
			Best: core.PoseRecord{Spot: e.Spot, Score: e.Score}}
	}
	return recs
}

// jobFor returns the job for a replayed event, creating a placeholder if
// its submitted record was lost with a truncated tail.
func (s *Service) jobFor(id string) *Job {
	if j, ok := s.jobs[id]; ok {
		return j
	}
	j := &Job{id: id, state: StateQueued}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.bumpNextID(id)
	return j
}

// applyView overwrites a job from a full snapshot (terminal or compaction
// record).
func (s *Service) applyView(v *JobView) {
	j := s.jobFor(v.ID)
	j.state = v.State
	j.req = v.Request
	j.submitted = v.SubmittedAt
	j.started = time.Time{}
	if v.StartedAt != nil {
		j.started = *v.StartedAt
	}
	j.finished = time.Time{}
	if v.FinishedAt != nil {
		j.finished = *v.FinishedAt
	}
	j.err = v.Error
	j.attempts = v.Attempts
	j.lastErr = v.LastError
	j.idemKey = v.IdempotencyKey
	j.degraded = v.Degraded
	j.effortFactor = v.EffortFactor
	j.effectiveScale = v.EffectiveScale
	j.deadline = time.Time{}
	if v.DeadlineAt != nil {
		j.deadline = *v.DeadlineAt
	}
	if v.IdempotencyKey != "" {
		s.idem[v.IdempotencyKey] = j.id
	}
	j.result = nil
	j.restored = v.Result
}

// bumpNextID keeps ID allocation monotonic across restarts.
func (s *Service) bumpNextID(id string) {
	var n uint64
	if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > s.nextID {
		s.nextID = n
	}
}

// appendEvent journals one event, reporting whether the record is in the
// journal. Callers hold s.mu.
//
// Failure policy: while the service is storage-degraded the append is
// skipped outright (counted as skipped — in-flight jobs finish
// un-journaled by design). A fresh failure gets exactly one
// Recover-and-retry for transient causes; ENOSPC, or a retry that also
// fails, flips the service into degraded read-only mode. The in-memory
// service stays correct either way — only durability degrades — but
// SubmitIdem refuses to acknowledge a submission whose record did not
// land, so a 202 always means "journaled".
func (s *Service) appendEvent(ev jobEvent) bool {
	if s.journal == nil {
		return true
	}
	if s.storageDegraded {
		s.metrics.journalSkipped.Inc()
		return false
	}
	b, err := json.Marshal(ev)
	if err == nil {
		err = s.journal.Append(b)
	}
	if err != nil {
		s.metrics.journalErrors.Inc()
		s.log.Error("journal append failed", "job", ev.Job, "err", err)
		// One shot at recovery for transient I/O faults. A full disk is
		// not transient — retrying the same bytes cannot help.
		if !errors.Is(err, syscall.ENOSPC) {
			if rerr := s.journal.Recover(); rerr == nil {
				if err2 := s.journal.Append(b); err2 == nil {
					s.metrics.storageRecoveries.Inc()
					s.log.Info("journal append recovered after transient failure", "job", ev.Job)
					return s.afterAppendLocked(b)
				}
			}
		}
		s.enterDegradedLocked(err)
		return false
	}
	return s.afterAppendLocked(b)
}

// afterAppendLocked finishes a successful append: counters and size-based
// compaction. Caller holds s.mu.
func (s *Service) afterAppendLocked(b []byte) bool {
	s.metrics.JournalAppend(len(b))
	if s.journal.ShouldCompact(s.cfg.CompactBytes) {
		s.compactLocked()
	}
	return true
}

// compactLocked rewrites the journal as one snapshot record per job,
// followed, for a job that can still run, by its ligand records — the
// resume state. A terminal job's snapshot carries its result, so its
// records are dropped. Reports success. Caller holds s.mu.
func (s *Service) compactLocked() bool {
	live := make([][]byte, 0, len(s.order))
	add := func(ev jobEvent) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			s.metrics.journalErrors.Inc()
			return false
		}
		live = append(live, b)
		return true
	}
	for _, id := range s.order {
		j := s.jobs[id]
		v := j.view()
		if !add(jobEvent{Type: evSnapshot, Job: id, View: &v}) {
			return false
		}
		if j.state.Terminal() {
			continue
		}
		for i := range j.records {
			if !add(jobEvent{Type: evLigand, Job: id, Ligand: &j.records[i]}) {
				return false
			}
		}
	}
	if err := s.journal.Compact(live); err != nil {
		s.metrics.journalErrors.Inc()
		s.log.Error("journal compact failed", "err", err)
		return false
	}
	s.metrics.journalCompactions.Inc()
	return true
}

// enterDegradedLocked flips the service into storage-degraded read-only
// mode: new submissions are shed with ErrStorageFull (HTTP 507 +
// Retry-After), reads keep serving, in-flight jobs finish un-journaled.
// tryRecoverStorageLocked probes the way back out. Caller holds s.mu.
func (s *Service) enterDegradedLocked(cause error) {
	if s.storageDegraded {
		return
	}
	s.storageDegraded = true
	s.storageReason = "io_error"
	if errors.Is(cause, syscall.ENOSPC) {
		s.storageReason = "disk_full"
	}
	s.storageSince = s.now()
	s.storageOnce.Do(func() { close(s.storageNotify) })
	s.log.Error("entering storage-degraded read-only mode",
		"reason", s.storageReason, "err", cause)
}

// storageProbeInterval rate-limits degraded-mode recovery probes (each
// probe attempts a journal Recover plus a full compaction). Package var so
// tests can zero it.
var storageProbeInterval = time.Second

// tryRecoverStorageLocked probes whether degraded mode can end: the WAL
// must Recover, and a full compaction — which writes a snapshot of every
// job, closing the un-journaled gap AND proving the disk takes writes
// again — must succeed. True means the service is (back) in journaling
// mode. Caller holds s.mu.
func (s *Service) tryRecoverStorageLocked() bool {
	if !s.storageDegraded {
		return true
	}
	if s.journal == nil {
		return false
	}
	now := s.now()
	if storageProbeInterval > 0 && now.Sub(s.lastStorageProbe) < storageProbeInterval {
		return false
	}
	s.lastStorageProbe = now
	if err := s.journal.Recover(); err != nil {
		return false
	}
	if !s.compactLocked() || s.journal.Failed() != nil {
		return false
	}
	s.storageDegraded = false
	s.storageReason = ""
	s.metrics.storageRecoveries.Inc()
	s.log.Info("storage recovered, journaling re-enabled",
		"degraded_seconds", now.Sub(s.storageSince).Seconds())
	return true
}
