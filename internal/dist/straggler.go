package dist

import (
	"math"
	"sort"
	"strconv"

	"github.com/metascreen/metascreen/internal/service"
	"github.com/metascreen/metascreen/internal/trace"
)

// Straggler mitigation. The re-split machinery (supervise.go) only moves
// ligands off *dead* workers; a slow-but-alive worker still holds a
// screen's tail hostage — the distributed version of the imbalance the
// paper's Percent-factor split exists to prevent. This file treats
// slowness as a first-class fault, in three escalating moves, all run
// under the coordinator's mutex from the supervision step:
//
//   - Work-stealing: a shard whose projected finish (remaining ligands /
//     owner's observed rate) exceeds StealThreshold × the reference ETA
//     is fenced exactly like a zombie's shard — marked moved, its late
//     partials rejected by the same locked re-check, its worker-side job
//     best-effort cancelled — and the unfinished remainder is re-
//     dispatched across the idle workers under fresh shard IDs (hence
//     fresh idempotency keys). Ligands already merged stay merged; the
//     merged-set dedup keeps rankings byte-identical no matter how the
//     race between victim and thief resolves.
//
//   - Hedged dispatch: when a job is down to its last HedgeTail
//     unfinished shards, each is twinned onto an idle worker with its
//     remaining ligands. First complete twin wins; the loser is fenced
//     and cancelled like a stolen shard.
//
//   - Quarantine: a worker persistently observed far below the fleet's
//     median rate is browned out — split weight divided by
//     QuarantineFactor, excluded from steals, hedges, and initial equal
//     splits — instead of being declared dead. It keeps its current
//     shards; recovery (or a steal of its last shard) is decided by the
//     same rate signal that demoted it.

// quarantineStreak is how many consecutive below-bar assessments demote a
// worker — hysteresis against one noisy rate sample.
const quarantineStreak = 3

// stealHedgeLocked runs one straggler pass for a running job: flag
// stragglers against the median ETA, steal their remainders onto idle
// workers, then hedge the tail shards. Caller holds c.mu; new shards are
// picked up by the same step's dispatch collection.
func (c *Coordinator) stealHedgeLocked(j *job) {
	if j.state != service.StateRunning {
		return
	}
	now := c.cfg.now()
	grace := c.cfg.HeartbeatTimeout

	// Active shards with their unfinished remainders and projected ETAs,
	// plus completed-shard durations as the fallback reference.
	type candidate struct {
		sh        *shard
		remaining []string
		eta       float64
	}
	var active []candidate
	var refPool []float64
	for _, sh := range j.shards {
		if sh.moved {
			continue
		}
		if sh.done {
			if !sh.doneAt.IsZero() && !sh.dispatched.IsZero() {
				refPool = append(refPool, sh.doneAt.Sub(sh.dispatched).Seconds())
			}
			continue
		}
		if sh.remote == "" || !c.epochValidLocked(sh) {
			continue
		}
		var rem []string
		for _, n := range sh.ligands {
			if _, ok := j.merged[n]; !ok {
				rem = append(rem, n)
			}
		}
		if len(rem) == 0 {
			continue
		}
		active = append(active, candidate{sh: sh, remaining: rem, eta: c.shardETALocked(sh, len(rem))})
	}
	if len(active) == 0 {
		return
	}
	for _, a := range active {
		if !math.IsInf(a.eta, 1) {
			refPool = append(refPool, a.eta)
		}
	}

	// Steal pass. The reference mixes finite active ETAs with completed
	// durations: while healthy shards run, the straggler is measured
	// against them; once only the straggler remains, against how long a
	// healthy shard took. No reference (single shard, nothing finished,
	// no rate observed) means no steal — on a one-worker cluster this
	// pass is a no-op by construction.
	if c.cfg.StealThreshold > 0 && len(refPool) > 0 {
		ref := medianLow(refPool)
		// Worst first, so the shard holding the job hostage is stolen
		// before milder stragglers consume the idle workers.
		sort.Slice(active, func(a, b int) bool { return active[a].eta > active[b].eta })
		for _, a := range active {
			if a.sh.moved || a.sh.hedgedBy != "" || a.sh.hedgeOf != "" {
				continue // hedged pairs already have a backup racing
			}
			if now.Sub(a.sh.dispatched) < grace {
				continue // too young for its rate estimate to mean anything
			}
			if ref <= 0 || a.eta <= c.cfg.StealThreshold*ref {
				continue
			}
			idle := c.idleWorkersLocked(a.sh.worker)
			if len(idle) == 0 {
				continue
			}
			c.stealLocked(j, a.sh, a.remaining, idle, a.eta, ref)
		}
	}

	// Hedge pass. Only the job's tail — when at most HedgeTail shards
	// remain unfinished — is worth the duplicated work.
	if c.cfg.HedgeTail <= 0 {
		return
	}
	live := 0
	for _, a := range active {
		if !a.sh.moved {
			live++
		}
	}
	if live == 0 || live > c.cfg.HedgeTail {
		return
	}
	for _, a := range active {
		sh := a.sh
		if sh.moved || sh.hedgedBy != "" || sh.hedgeOf != "" {
			continue
		}
		if now.Sub(sh.dispatched) < grace {
			continue
		}
		idle := c.idleWorkersLocked(sh.worker)
		if len(idle) == 0 {
			return
		}
		c.hedgeLocked(j, sh, a.remaining, idle[0])
	}
}

// shardETALocked projects when a shard's unfinished remainder completes
// at its owner's observed rate. No observed progress means +Inf — a
// stalled worker must look infinitely slow, not unknown. Caller holds
// c.mu.
func (c *Coordinator) shardETALocked(sh *shard, remaining int) float64 {
	w := c.workers[sh.worker]
	if w == nil || w.rate.Value() <= 0 {
		return math.Inf(1)
	}
	return float64(remaining) / w.rate.Value()
}

// idleWorkersLocked lists alive, unquarantined workers with no active
// shard in any non-terminal job, fastest first (ties by URL for
// determinism), excluding the given victim. Caller holds c.mu.
func (c *Coordinator) idleWorkersLocked(exclude string) []*worker {
	busy := make(map[string]bool)
	for _, id := range c.order {
		j := c.jobs[id]
		if j.state.Terminal() {
			continue
		}
		for _, sh := range j.shards {
			if !sh.done && !sh.moved {
				busy[sh.worker] = true
			}
		}
	}
	var idle []*worker
	for _, w := range c.aliveWorkersLocked() {
		if w.url == exclude || w.quarantined || busy[w.url] {
			continue
		}
		idle = append(idle, w)
	}
	sort.SliceStable(idle, func(a, b int) bool { return idle[a].rate.Value() > idle[b].rate.Value() })
	return idle
}

// stealLocked fences the victim shard and re-dispatches its unfinished
// remainder across the idle workers under fresh shard IDs — fresh
// idempotency keys, so the thieves start real work instead of mapping
// onto the victim's stuck job. The victim is quarantined on the spot: a
// proven straggler should not receive an equal share of the next
// re-split. Caller holds c.mu.
func (c *Coordinator) stealLocked(j *job, victim *shard, remaining []string, idle []*worker, eta, ref float64) {
	victim.moved = true
	victim.stolen = true
	if victim.remote != "" {
		c.fenced = append(c.fenced, remoteRef{worker: victim.worker, remote: victim.remote})
	}
	c.appendEvent(event{Type: evMoved, Job: j.id, Shard: victim.id})
	c.metrics.shardsStolen.Inc()
	if w := c.workers[victim.worker]; w != nil {
		w.stolenFrom++
		c.quarantineWorkerLocked(w, "shard stolen")
	}

	weights := make([]float64, len(idle))
	mask := make([]bool, len(idle))
	for i, w := range idle {
		weights[i] = w.rate.Value()
		mask[i] = true
	}
	chunks := SplitWeighted(remaining, weights, mask)
	for i, chunk := range chunks {
		if len(chunk) == 0 {
			continue
		}
		ns := &shard{id: "s" + strconv.Itoa(j.nextShard), worker: idle[i].url, epoch: idle[i].epoch, ligands: chunk}
		j.nextShard++
		j.shards = append(j.shards, ns)
		idle[i].shards++
		c.metrics.shards.Inc()
		c.appendEvent(event{Type: evAssign, Job: j.id, Shard: ns.id, Worker: ns.worker, Epoch: ns.epoch, Ligands: chunk})
		c.log.Info("shard remainder stolen",
			"job", j.id, "victimShard", victim.id, "victim", victim.worker,
			"thiefShard", ns.id, "thief", ns.worker, "ligands", len(chunk))
	}
	t := j.rec.Now()
	j.rec.AddSpan(trace.Span{
		Track: "membership", Name: "steal " + victim.id + " off " + victim.worker,
		Cat: trace.CatShard, Start: t, End: t,
		Args: map[string]string{
			"ligands": strconv.Itoa(len(remaining)),
			"eta_s":   strconv.FormatFloat(eta, 'f', 2, 64),
			"ref_s":   strconv.FormatFloat(ref, 'f', 2, 64),
		},
	})
}

// hedgeLocked twins a tail shard onto an idle worker: a new shard with
// the primary's unfinished remainder, linked both ways so the first
// completion fences and cancels the other. Caller holds c.mu.
func (c *Coordinator) hedgeLocked(j *job, primary *shard, remaining []string, w *worker) {
	hs := &shard{
		id: "s" + strconv.Itoa(j.nextShard), worker: w.url, epoch: w.epoch,
		ligands: append([]string(nil), remaining...), hedgeOf: primary.id,
	}
	j.nextShard++
	j.shards = append(j.shards, hs)
	primary.hedgedBy = hs.id
	w.shards++
	c.metrics.hedgesIssued.Inc()
	c.metrics.shards.Inc()
	c.appendEvent(event{Type: evAssign, Job: j.id, Shard: hs.id, Worker: hs.worker, Epoch: hs.epoch, Ligands: hs.ligands, HedgeOf: primary.id})
	t := j.rec.Now()
	j.rec.AddSpan(trace.Span{
		Track: "membership", Name: "hedge " + primary.id + " on " + w.url,
		Cat: trace.CatShard, Start: t, End: t,
		Args: map[string]string{"twin": hs.id, "ligands": strconv.Itoa(len(hs.ligands))},
	})
	c.log.Info("tail shard hedged",
		"job", j.id, "primary", primary.id, "on", primary.worker,
		"twin", hs.id, "worker", w.url, "ligands", len(hs.ligands))
}

// livePartnerLocked returns the other half of a hedge pair if it is still
// racing (not done, not moved), nil otherwise. Caller holds c.mu.
func (j *job) livePartnerLocked(sh *shard) *shard {
	id := sh.hedgeOf
	if id == "" {
		id = sh.hedgedBy
	}
	if id == "" {
		return nil
	}
	for _, p := range j.shards {
		if p.id == id && !p.done && !p.moved {
			return p
		}
	}
	return nil
}

// resolveHedgeLocked settles a hedge race after `winner` completed: the
// losing twin is fenced (late partials drop at the moved check, exactly
// like a stolen shard's) and its worker-side job queued for cancel so the
// slower worker stops burning time on already-merged ligands. Caller
// holds c.mu.
func (c *Coordinator) resolveHedgeLocked(j *job, winner *shard) {
	loser := j.livePartnerLocked(winner)
	if winner.hedgeOf != "" {
		// The twin beat the shard it was backing: the hedge paid off.
		c.metrics.hedgeWins.Inc()
	}
	if loser == nil {
		return
	}
	loser.moved = true
	if loser.remote != "" {
		c.fenced = append(c.fenced, remoteRef{worker: loser.worker, remote: loser.remote})
	}
	c.appendEvent(event{Type: evMoved, Job: j.id, Shard: loser.id})
	t := j.rec.Now()
	j.rec.AddSpan(trace.Span{
		Track: "membership", Name: "hedge won by " + winner.id + " over " + loser.id,
		Cat: trace.CatShard, Start: t, End: t,
		Args: map[string]string{"loser_worker": loser.worker},
	})
	c.log.Info("hedge race resolved",
		"job", j.id, "winner", winner.id, "loser", loser.id, "loserWorker", loser.worker)
}

// assessQuarantineLocked compares every alive worker's observed rate
// against the fleet and demotes (or recovers) the persistent outliers.
// Entry needs quarantineStreak consecutive passes below median/factor;
// exit needs the rate back above twice that bar — hysteresis in both
// directions so a worker doesn't flap at the boundary. Rate-limited to
// one assessment per PollInterval no matter how many supervisors call
// it. Caller holds c.mu.
func (c *Coordinator) assessQuarantineLocked() {
	f := c.cfg.QuarantineFactor
	if f <= 0 {
		return
	}
	now := c.cfg.now()
	if now.Sub(c.lastAssess) < c.cfg.PollInterval {
		return
	}
	c.lastAssess = now
	var rates []float64
	for _, w := range c.workers {
		if w.alive && w.rate.Observed() {
			rates = append(rates, w.rate.Value())
		}
	}
	if len(rates) < 2 {
		return // no fleet to be an outlier of
	}
	med := medianHigh(rates)
	if med <= 0 {
		return
	}
	for _, w := range c.workers {
		if !w.alive || !w.rate.Observed() {
			continue
		}
		switch {
		case w.rate.Value()*f < med:
			w.slowStreak++
			if w.slowStreak >= quarantineStreak {
				c.quarantineWorkerLocked(w, "rate below fleet median")
			}
		case w.rate.Value()*f >= 2*med:
			w.slowStreak = 0
			if w.quarantined {
				w.quarantined = false
				c.log.Info("worker left quarantine", "worker", w.url, "rate_lps", w.rate.Value())
			}
		default:
			w.slowStreak = 0 // gray zone: neither demote nor recover
		}
	}
}

// quarantineWorkerLocked demotes a worker to the brownout (idempotent).
// Quarantine is deliberately ephemeral — not journaled — because the
// rates it is based on die with the process anyway; a restarted
// coordinator re-learns both. Caller holds c.mu.
func (c *Coordinator) quarantineWorkerLocked(w *worker, reason string) {
	if w.quarantined {
		return
	}
	w.quarantined = true
	w.slowStreak = 0
	c.metrics.quarantines.Inc()
	c.log.Warn("worker quarantined",
		"worker", w.url, "reason", reason, "rate_lps", w.rate.Value())
}

// medianLow returns the lower median — the aggressive choice for ETAs,
// where the reference should lean toward the faster half of the fleet.
func medianLow(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// medianHigh returns the upper median — the aggressive choice for rates,
// for the same reason with the axis flipped.
func medianHigh(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
