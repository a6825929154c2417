package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/metascreen/metascreen/internal/dist"
	"github.com/metascreen/metascreen/internal/service"
)

// cluster-durable: one coordinator and two workers in this process over
// loopback HTTP, every node journaled to its own data directory on its own
// in-memory filesystem (memFS, the tmpfs case). Each op screens a
// 1024-ligand library with modeled (cheap) scoring, so the time goes to
// the control plane: per-ligand checkpoint rewrites, partial polls and the
// journals.
const (
	clusterLibrary = 1024
	clusterWorkers = 2
	clientPoll     = 10 * time.Millisecond // the benchmark client's status poll
	bootTimeout    = 20 * time.Second
	opTimeout      = 120 * time.Second
)

// clusterDataDir is the nominal root of the nodes' data directories; the
// paths only exist inside each node's memFS.
const clusterDataDir = "cluster-data"

type clusterBench struct {
	seed    uint64
	tr      *tracer
	coord   *dist.Coordinator
	coordHS *httptest.Server
	nodes   []*service.Service
	nodeHS  []*httptest.Server
	stop    context.CancelFunc
	beats   sync.WaitGroup
	client  *http.Client
	// want is the result of the same request on one in-process node.
	want *service.ResultView
}

func setupCluster(cfg config) (bench, error) { return bootCluster(cfg.seed, nil) }

// bootCluster starts the coordinator and workers and waits until both
// workers are registered. With tr set, every node reports to it.
func bootCluster(seed uint64, tr *tracer) (*clusterBench, error) {
	c := &clusterBench{seed: seed, tr: tr, client: &http.Client{Timeout: opTimeout}}
	if err := c.boot(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *clusterBench) boot() error {
	ccfg := dist.Config{
		DataDir: filepath.Join(clusterDataDir, "coordinator"),
		FS:      newMemFS(),
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if c.tr != nil {
		ccfg.FS = c.tr.fs(ccfg.FS, "coordinator/disk", &c.tr.st.coordFS)
		ccfg.Transport = c.tr.transport(http.DefaultTransport)
	}
	coord, err := dist.New(ccfg)
	if err != nil {
		return err
	}
	c.coord = coord
	c.coordHS = httptest.NewServer(coord.Handler())

	ctx, stop := context.WithCancel(context.Background())
	c.stop = stop
	for i := 0; i < clusterWorkers; i++ {
		name := fmt.Sprintf("worker%d", i)
		scfg := service.Config{Workers: 1, ScreenWorkers: 1, DataDir: filepath.Join(clusterDataDir, name), FS: newMemFS()}
		if c.tr != nil {
			scfg.FS = c.tr.fs(scfg.FS, name+"/disk", &c.tr.st.workerFS)
		}
		node, err := service.New(scfg)
		if err != nil {
			return err
		}
		c.nodes = append(c.nodes, node)
		h := node.Handler()
		if c.tr != nil {
			h = c.tr.handler(name, h)
		}
		hs := httptest.NewServer(h)
		c.nodeHS = append(c.nodeHS, hs)
		if c.tr != nil {
			c.tr.nameWorker(hs.URL, name)
		}
		c.beats.Add(1)
		go func() {
			defer c.beats.Done()
			dist.RegisterLoop(ctx, c.coordHS.URL, hs.URL, 0, nil) // 0 = default heartbeat
		}()
	}
	deadline := time.Now().Add(bootTimeout)
	for c.coord.Stats().WorkersAlive < clusterWorkers {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d workers registered", c.coord.Stats().WorkersAlive, clusterWorkers)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (c *clusterBench) request() service.ScreenRequest {
	return service.ScreenRequest{Library: clusterLibrary, Modeled: true, Seed: c.seed}
}

func (c *clusterBench) describe() string {
	r := c.request().Normalized()
	return fmt.Sprintf("coordinator + %d journaled workers (1 job x 1 thread each) on loopback HTTP, data dirs on in-memory filesystems; op = %d-ligand %s screen (%s, scale %g, %d spots, modeled) + ranking fetch",
		clusterWorkers, r.Library, r.Dataset, r.Metaheuristic, r.Scale, r.Spots)
}

// warm records the single-node reference and runs one untimed op.
func (c *clusterBench) warm() error {
	node, err := service.New(service.Config{Workers: 1, ScreenWorkers: 1})
	if err != nil {
		return err
	}
	defer node.Shutdown(context.Background())
	v, err := node.Submit(c.request())
	if err != nil {
		return err
	}
	deadline := time.Now().Add(opTimeout)
	for !v.State.Terminal() {
		if time.Now().After(deadline) {
			return fmt.Errorf("single-node reference job %s stuck in %s", v.ID, v.State)
		}
		time.Sleep(clientPoll)
		if v, err = node.Get(v.ID); err != nil {
			return err
		}
	}
	if v.State != service.StateDone || v.Result == nil {
		return fmt.Errorf("single-node reference job ended %s: %s", v.State, v.Error)
	}
	c.want = v.Result
	_, _, err = c.op(nil)
	return err
}

// op submits one screen to the coordinator, polls it to a terminal state
// and fetches the full ranking; the latency ends with the ranking in hand.
func (c *clusterBench) op(tr *tracer) (int, time.Duration, error) {
	before, err := c.counters()
	if err != nil {
		return 0, 0, err
	}
	tr.beginOp("screen")
	t0 := time.Now()
	v, err := c.screen()
	lat := time.Since(t0)
	tr.endOp()
	if err != nil {
		return 0, 0, err
	}
	after, err := c.counters()
	if err != nil {
		return 0, 0, err
	}
	merged := after["metascreen_dist_ligands_merged_total"] - before["metascreen_dist_ligands_merged_total"]
	tr.noteMerge(merged,
		after["metascreen_dist_shards_stolen_total"]-before["metascreen_dist_shards_stolen_total"],
		after["metascreen_dist_hedges_issued_total"]-before["metascreen_dist_hedges_issued_total"])
	if merged != clusterLibrary {
		return 0, 0, fmt.Errorf("job %s merged %d ligands, want exactly %d", v.ID, merged, clusterLibrary)
	}
	if err := sameResult(v.Result, c.want); err != nil {
		return 0, 0, fmt.Errorf("job %s vs single node: %w", v.ID, err)
	}
	return len(v.Result.Ranking), lat, nil
}

func (c *clusterBench) screen() (*dist.JobView, error) {
	body, err := json.Marshal(c.request())
	if err != nil {
		return nil, err
	}
	var v dist.JobView
	if err := c.call(http.MethodPost, "/v1/screens", body, http.StatusAccepted, &v); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(opTimeout)
	for !v.State.Terminal() {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s stuck in %s", v.ID, v.State)
		}
		time.Sleep(clientPoll)
		if err := c.call(http.MethodGet, "/v1/screens/"+v.ID+"?limit=1", nil, http.StatusOK, &v); err != nil {
			return nil, err
		}
	}
	if v.State != service.StateDone {
		return nil, fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	err = c.call(http.MethodGet, "/v1/screens/"+v.ID+"?limit="+strconv.Itoa(clusterLibrary), nil, http.StatusOK, &v)
	if err == nil && v.Result == nil {
		err = fmt.Errorf("job %s is done without a result", v.ID)
	}
	return &v, err
}

func (c *clusterBench) call(method, path string, body []byte, status int, out any) error {
	req, err := http.NewRequest(method, c.coordHS.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// counters scrapes the coordinator's /metrics counters.
func (c *clusterBench) counters() (map[string]int64, error) {
	resp, err := c.client.Get(c.coordHS.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// sameResult requires the merged ranking to be byte-identical on the wire
// to the single node's, and the rebuilt totals to match bit for bit.
func sameResult(got, want *service.ResultView) error {
	g, err := json.Marshal(got.Ranking)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want.Ranking)
	if err != nil {
		return err
	}
	switch {
	case !bytes.Equal(g, w):
		return fmt.Errorf("ranking (%d entries) differs: %w", len(got.Ranking), errMismatch)
	case math.Float64bits(got.SimulatedSeconds) != math.Float64bits(want.SimulatedSeconds):
		return fmt.Errorf("simulated seconds %v, want %v: %w", got.SimulatedSeconds, want.SimulatedSeconds, errMismatch)
	case got.Evaluations != want.Evaluations:
		return fmt.Errorf("evaluations %d, want %d: %w", got.Evaluations, want.Evaluations, errMismatch)
	}
	return nil
}

// withTracer boots a second cluster with every wrapper installed; the
// wrappers sit in the nodes' configs, so they cannot be added later.
func (c *clusterBench) withTracer(tr *tracer) (bench, error) {
	tc, err := bootCluster(c.seed, tr)
	if err != nil {
		return nil, err
	}
	tc.want = c.want
	if _, _, err := tc.op(nil); err != nil {
		tc.close()
		return nil, fmt.Errorf("traced cluster warm-up: %w", err)
	}
	return tc, nil
}

// close stops heartbeats, drains the coordinator and then the workers.
func (c *clusterBench) close() error {
	var errs []error
	if c.stop != nil {
		c.stop()
		c.beats.Wait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), bootTimeout)
	defer cancel()
	if c.coord != nil {
		errs = append(errs, c.coord.Shutdown(ctx))
	}
	if c.coordHS != nil {
		c.coordHS.Close()
	}
	for _, n := range c.nodes {
		errs = append(errs, n.Shutdown(ctx))
	}
	for _, hs := range c.nodeHS {
		hs.Close()
	}
	c.client.CloseIdleConnections()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return errors.Join(errs...)
}
