package dist

// The coordinator's durability layer. Every piece of distributed state
// that cannot be re-derived from the workers is journaled through the
// same WAL the service uses: job admissions (with idempotency keys),
// membership changes, shard assignments, merged partial entries, and
// terminal snapshots. A coordinator restarted over the same data dir
// replays the journal, rebuilds its job table mid-screen, and
// re-dispatches unfinished shards under their original idempotency keys
// — workers that kept running simply hand back the same jobs, so no
// ligand is docked twice and the final ranking is unchanged.
//
// Worker liveness is deliberately NOT trusted across a restart: replayed
// workers get a fresh heartbeat grace window and must re-heartbeat
// within HeartbeatTimeout or be declared dead and re-split around.

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/metascreen/metascreen/internal/service"
	"github.com/metascreen/metascreen/internal/wal"
)

// Event types. Unknown types are skipped on replay so newer journals
// degrade gracefully under older binaries.
const (
	evJob      = "job"      // distributed screen admitted
	evWorker   = "worker"   // membership change (alive flag is the new state)
	evAssign   = "assign"   // shard assigned to a worker
	evMoved    = "moved"    // shard fenced mid-run (remainder stolen, hedge race lost)
	evEntries  = "entries"  // per-ligand results merged from a worker partial
	evCancel   = "cancel"   // cancellation requested
	evTerminal = "terminal" // job reached a terminal state (full snapshot)
)

// event is one journal record. Which fields are set depends on Type;
// terminal events carry the whole JobView so replay needs no other
// source of truth for finished screens.
type event struct {
	Type    string                 `json:"type"`
	Time    time.Time              `json:"time,omitempty"`
	Job     string                 `json:"job,omitempty"`
	IdemKey string                 `json:"idem_key,omitempty"`
	Request *service.ScreenRequest `json:"request,omitempty"`
	Worker  string                 `json:"worker,omitempty"`
	Alive   bool                   `json:"alive"`
	Epoch   uint64                 `json:"epoch,omitempty"`
	Shard   string                 `json:"shard,omitempty"`
	HedgeOf string                 `json:"hedge_of,omitempty"`
	Ligands []string               `json:"ligands,omitempty"`
	Entries []service.PartialEntry `json:"entries,omitempty"`
	View    *JobView               `json:"view,omitempty"`
}

// appendEvent journals one event and reports whether it is durable.
// Callers hold c.mu and have already applied ev to memory. A failed
// append gets one repair attempt, the service's policy: the journal is
// reopened at its last acknowledged size (wal Recover) and rewritten as a
// full-state compaction, which re-journals ev together with anything lost
// while the journal was failing. Most callers only log a failure —
// durability degrades, the screen goes on — but Submit must not
// acknowledge an admission that is not in the journal.
func (c *Coordinator) appendEvent(ev event) error {
	if c.journal == nil {
		return nil
	}
	b, err := json.Marshal(ev)
	if err != nil {
		c.metrics.journalErrors.Inc()
		return err
	}
	if err = c.journal.Append(b); err == nil {
		if c.journal.ShouldCompact(c.cfg.CompactBytes) {
			c.compactLocked()
		}
		return nil
	}
	c.metrics.journalErrors.Inc()
	c.log.Error("dist journal append failed", "job", ev.Job, "err", err)
	if c.journal.Recover() == nil && c.compactLocked() == nil {
		c.log.Info("dist journal repaired by compaction", "job", ev.Job)
		return nil
	}
	return err
}

// compactLocked rewrites the journal as the minimal record set that
// reproduces current state: membership, then per job either its terminal
// snapshot or its admission + live assignments + merged entries (+
// pending cancel). Caller holds c.mu.
func (c *Coordinator) compactLocked() error {
	var live [][]byte
	add := func(ev event) error {
		b, err := json.Marshal(ev)
		if err != nil {
			c.metrics.journalErrors.Inc()
			return err
		}
		live = append(live, b)
		return nil
	}
	urls := make([]string, 0, len(c.workers))
	for u := range c.workers {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	for _, u := range urls {
		if err := add(event{Type: evWorker, Worker: u, Alive: c.workers[u].alive, Epoch: c.workers[u].epoch}); err != nil {
			return err
		}
	}
	for _, id := range c.order {
		j := c.jobs[id]
		if err := add(event{Type: evJob, Job: j.id, IdemKey: j.idemKey, Request: &j.req, Time: j.submitted}); err != nil {
			return err
		}
		if j.final != nil {
			if err := add(event{Type: evTerminal, Job: j.id, View: j.final}); err != nil {
				return err
			}
			continue
		}
		for _, sh := range j.shards {
			if sh.moved {
				continue
			}
			if err := add(event{Type: evAssign, Job: j.id, Shard: sh.id, Worker: sh.worker, Epoch: sh.epoch, Ligands: sh.ligands, HedgeOf: sh.hedgeOf}); err != nil {
				return err
			}
		}
		if len(j.merged) > 0 {
			entries := make([]service.PartialEntry, 0, len(j.merged))
			for _, n := range j.names {
				if e, ok := j.merged[n]; ok {
					entries = append(entries, e)
				}
			}
			if err := add(event{Type: evEntries, Job: j.id, Entries: entries}); err != nil {
				return err
			}
		}
		if j.cancelRequested {
			if err := add(event{Type: evCancel, Job: j.id}); err != nil {
				return err
			}
		}
	}
	if err := c.journal.Compact(live); err != nil {
		c.metrics.journalErrors.Inc()
		c.log.Error("dist journal compact failed", "err", err)
		return err
	}
	return nil
}

// openJournal opens the coordinator WAL and replays it into the job and
// membership tables. Called from New before any supervisor starts, so no
// lock is needed.
func (c *Coordinator) openJournal() error {
	j, info, err := wal.Open(filepath.Join(c.cfg.DataDir, "dist-journal"), wal.Options{
		Policy: c.cfg.SyncPolicy,
		Logf:   func(format string, args ...any) { c.log.Warn(fmt.Sprintf(format, args...)) },
		FS:     c.cfg.FS,
		OnIOError: func(op string, err error) {
			c.metrics.journalErrors.Inc()
			c.log.Warn("dist journal io error", "op", op, "err", err)
		},
	})
	if err != nil {
		return err
	}
	boot := c.cfg.now()
	replayed := 0
	err = j.Replay(func(rec []byte) error {
		var ev event
		if uerr := json.Unmarshal(rec, &ev); uerr != nil {
			c.metrics.journalErrors.Inc()
			return nil
		}
		c.applyEvent(ev, boot)
		replayed++
		return nil
	})
	if err != nil {
		j.Close()
		return err
	}
	c.journal = j

	// A replayed job may hold ligands that were never assigned before the
	// crash (or were assigned to a worker whose death was journaled);
	// recompute the unassigned remainder so the supervisor re-splits it.
	resumed := 0
	for _, id := range c.order {
		jb := c.jobs[id]
		if jb.state.Terminal() {
			continue
		}
		covered := make(map[string]bool, len(jb.names))
		for _, sh := range jb.shards {
			if sh.moved {
				// A fenced shard covers nothing: if the crash landed between
				// the steal's moved record and the thief's assignment, its
				// remainder must land back in unassigned, not vanish.
				continue
			}
			for _, n := range sh.ligands {
				covered[n] = true
			}
		}
		jb.unassigned = nil
		for _, n := range jb.names {
			if _, ok := jb.merged[n]; ok {
				continue
			}
			if !covered[n] {
				jb.unassigned = append(jb.unassigned, n)
			}
		}
		resumed++
	}
	if replayed > 0 {
		c.log.Info("dist journal replayed",
			"records", replayed, "jobs", len(c.jobs), "resumed", resumed,
			"workers", len(c.workers), "truncated_bytes", info.TruncatedBytes)
	}
	return nil
}

// applyEvent folds one journal record into coordinator state. Replay
// only; events are last-write-wins per job.
func (c *Coordinator) applyEvent(ev event, boot time.Time) {
	switch ev.Type {
	case evJob:
		if ev.Request == nil || ev.Job == "" {
			return
		}
		jb := newJob(ev.Job, *ev.Request, ev.IdemKey, ev.Time)
		if _, ok := c.jobs[ev.Job]; !ok {
			c.order = append(c.order, ev.Job)
		}
		c.jobs[ev.Job] = jb
		if ev.IdemKey != "" {
			c.idem[ev.IdemKey] = ev.Job
		}
		if n, perr := strconv.ParseUint(strings.TrimPrefix(ev.Job, "dscreen-"), 10, 64); perr == nil && n > c.nextID {
			c.nextID = n
		}
	case evWorker:
		if ev.Worker == "" {
			return
		}
		w, ok := c.workers[ev.Worker]
		if !ok {
			w = &worker{url: ev.Worker}
			c.workers[ev.Worker] = w
		}
		w.alive = ev.Alive
		if ev.Epoch > w.epoch {
			w.epoch = ev.Epoch
		}
		// Epochs must keep advancing after a restart, or a revived zombie
		// could collide with a pre-crash epoch and slip the fence.
		// nextEpoch tracks the last epoch issued; Register pre-increments.
		if w.epoch > c.nextEpoch {
			c.nextEpoch = w.epoch
		}
		// Fresh grace window: the node must re-heartbeat or be reaped.
		w.lastBeat = boot
	case evAssign:
		jb := c.jobs[ev.Job]
		if jb == nil || ev.Shard == "" {
			return
		}
		sh := &shard{id: ev.Shard, worker: ev.Worker, epoch: ev.Epoch, ligands: ev.Ligands, hedgeOf: ev.HedgeOf}
		jb.shards = append(jb.shards, sh)
		if sh.hedgeOf != "" {
			// Reconnect the twin link so the race still resolves after a
			// restart (first completion fences the other leg).
			for _, p := range jb.shards {
				if p.id == sh.hedgeOf {
					p.hedgedBy = sh.id
				}
			}
		}
		if n, perr := strconv.Atoi(strings.TrimPrefix(ev.Shard, "s")); perr == nil && n >= jb.nextShard {
			jb.nextShard = n + 1
		}
	case evMoved:
		jb := c.jobs[ev.Job]
		if jb == nil {
			return
		}
		for _, sh := range jb.shards {
			if sh.id == ev.Shard {
				sh.moved = true
			}
		}
	case evEntries:
		jb := c.jobs[ev.Job]
		if jb == nil {
			return
		}
		for _, e := range ev.Entries {
			if jb.nameSet[e.Ligand] {
				jb.merged[e.Ligand] = e
			}
		}
	case evCancel:
		if jb := c.jobs[ev.Job]; jb != nil {
			jb.cancelRequested = true
		}
	case evTerminal:
		jb := c.jobs[ev.Job]
		if jb == nil || ev.View == nil {
			return
		}
		v := *ev.View
		jb.state = v.State
		jb.errMsg = v.Error
		jb.final = &v
		if v.StartedAt != nil {
			jb.started = *v.StartedAt
		}
		if v.FinishedAt != nil {
			jb.finished = *v.FinishedAt
		}
	}
}
