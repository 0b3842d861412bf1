package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/modcache"
	"repro/internal/sass"
	"repro/internal/serve"
	"repro/internal/specaccel"
)

// serviceTimeout bounds one distributed job; a job that does not settle in
// time counts as failed.
const serviceTimeout = 120 * time.Second

// serveStats is what the workers' timing wrappers observe of the service.
type serveStats struct {
	mu           sync.Mutex
	submit       time.Duration
	lease        []time.Duration
	complete     []time.Duration
	empty        int
	leased       int
	lostOrFailed int
	busy         time.Duration // summed lease-grant-to-Complete intervals
}

// timedBackend is the Backend a benchmark worker drives: it forwards every
// call to the worker's HTTP client and times it from outside. One wrapper
// serves one worker; Lease, Complete and Fail run on the worker's goroutine,
// Heartbeat on its heartbeat goroutine.
type timedBackend struct {
	c     *serve.Client
	st    *serveStats
	tr    *tracer
	lane  string
	root  int
	grant time.Time // when the current lease was granted
}

func (t *timedBackend) Register(info serve.WorkerInfo) (string, error) {
	id := t.tr.begin(t.lane, "serve.Client.Register", "serve", t.root)
	defer t.tr.end(id)
	return t.c.Register(info)
}

func (t *timedBackend) Lease(workerID string) (*serve.LeaseGrant, error) {
	t0 := time.Now()
	g, err := t.c.Lease(workerID)
	t1 := time.Now()
	t.tr.add(t.lane, "serve.Client.Lease", "serve", t.root, t0, t1)
	t.st.mu.Lock()
	defer t.st.mu.Unlock()
	t.st.lease = append(t.st.lease, t1.Sub(t0))
	switch {
	case g != nil:
		t.st.leased++
		t.grant = t1
	case err == nil:
		t.st.empty++
	}
	return g, err
}

// Heartbeat is counted, not spanned: it overlaps the shard it renews.
func (t *timedBackend) Heartbeat(workerID, leaseID string) error {
	err := t.c.Heartbeat(workerID, leaseID)
	if errors.Is(err, serve.ErrLeaseLost) {
		t.st.mu.Lock()
		t.st.lostOrFailed++
		t.st.mu.Unlock()
	}
	return err
}

func (t *timedBackend) Complete(workerID, leaseID string, res serve.ShardResult) error {
	return t.finish("serve.Client.Complete", func() error { return t.c.Complete(workerID, leaseID, res) }, true)
}

func (t *timedBackend) Fail(workerID, leaseID, reason string) error {
	return t.finish("serve.Client.Fail", func() error { return t.c.Fail(workerID, leaseID, reason) }, false)
}

// finish records the shard that ran since the grant and times the call that
// reports it.
func (t *timedBackend) finish(name string, call func() error, complete bool) error {
	t0 := time.Now()
	t.tr.add(t.lane, "serve.Worker.shard", "campaign", t.root, t.grant, t0)
	err := call()
	t1 := time.Now()
	t.tr.add(t.lane, name, "serve", t.root, t0, t1)
	t.st.mu.Lock()
	defer t.st.mu.Unlock()
	t.st.busy += t1.Sub(t.grant)
	if complete {
		t.st.complete = append(t.st.complete, t1.Sub(t0))
	}
	if !complete || err != nil {
		t.st.lostOrFailed++
	}
	return err
}

func (b *bench) serviceConfig() campaign.TransientCampaignConfig {
	return campaign.TransientCampaignConfig{
		Injections: serviceInjections, Group: sass.GroupGPPR, BitFlip: core.FlipSingleBit,
		Seed: b.seed, ShardSize: serviceShardSize, Parallel: 1,
	}
}

// service is a coordinator with an fsynced journal in a fresh directory,
// behind its HTTP API on a loopback port.
type service struct {
	coord *serve.Coordinator
	srv   *http.Server
	done  chan error
	dir   string
	url   string
}

func (b *bench) startService() (*service, error) {
	dir, err := os.MkdirTemp(b.tmpDir, "service-")
	if err != nil {
		return nil, err
	}
	coord, err := serve.NewCoordinator(serve.Options{JournalPath: filepath.Join(dir, "journal.jsonl")})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{coord: coord, srv: &http.Server{Handler: serve.NewServer(coord)}, done: make(chan error, 1),
		dir: dir, url: "http://" + ln.Addr().String()}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down, waits for it, and removes the journal.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	err = errors.Join(err, s.coord.Close(), os.RemoveAll(s.dir))
	return err
}

func (b *bench) serviceSpec() serve.CampaignSpec {
	return serve.CampaignSpec{Schema: serve.JobSchema, Workload: serviceProgram, Config: b.serviceConfig()}
}

// serviceRep runs one cold distributed campaign: Submit over HTTP, then the
// workers lease, run and complete shards until the coordinator reports the
// job settled.
func (b *bench) serviceRep(tr *tracer) (*rep, error) {
	svc, err := b.startService()
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := svc.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: service shutdown:", err)
		}
	}()
	st := &serveStats{}
	out := &rep{svc: st}
	u := &unit{name: serviceProgram, digests: make(map[string]string)}
	out.units = []*unit{u}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	start := time.Now()
	root := tr.begin("main", "rep", "bench", -1)
	id := tr.begin("main", "modcache.Cache.Reset", "modcache", root)
	modcache.Shared.Reset()
	tr.end(id)
	t0 := time.Now()
	id = tr.begin("main", "serve.Client.Submit", "serve", root)
	job, err := serve.NewClient(svc.url).Submit(b.serviceSpec())
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	out.setup = time.Since(t0)
	st.submit = out.setup

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	werrs := make([]error, b.workers)
	for i := range werrs {
		tb := &timedBackend{c: serve.NewClient(svc.url), st: st, tr: tr, lane: fmt.Sprintf("worker-%d", i)}
		tb.root = tr.begin(tb.lane, "serve.Worker.Run", "serve", -1)
		w := &serve.Worker{Backend: tb, Runner: campaign.Runner{}, Name: tb.lane}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			werrs[i] = w.Run(ctx)
			tr.end(tb.root)
		}(i)
	}
	id = tr.begin("main", "serve.Coordinator.EventsAfter", "serve", root)
	final, werr := waitJob(svc.coord, job.ID)
	tr.end(id)
	if werr == nil {
		u.digests[u.name+"/tally"] = tallyKey(final.Tally)
		out.n = final.Tally.N
	} else {
		u.digests[u.name+"/error"] = werr.Error()
	}
	id = tr.begin("main", "modcache.Cache.Stats", "modcache", root)
	out.mc = modcache.Shared.Stats()
	tr.end(id)
	tr.end(root)
	out.wall = time.Since(start)
	cancel()
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	out.gcCycles = ms1.NumGC - ms0.NumGC

	for _, err := range werrs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, fmt.Errorf("worker: %w", err)
		}
	}
	st.mu.Lock()
	u.n = st.leased * serviceShardSize
	u.failed = st.lostOrFailed * serviceShardSize
	st.mu.Unlock()
	if werr != nil {
		u.failed = u.n
	}
	out.executed = out.n
	out.budget = serviceInjections
	return out, nil
}

// waitJob follows the job's event stream on the coordinator itself until
// the job settles, and returns its final status.
func waitJob(c *serve.Coordinator, id string) (*serve.JobStatus, error) {
	timeout := time.NewTimer(serviceTimeout)
	defer timeout.Stop()
	cursor := 0
	for {
		evs, notify, err := c.EventsAfter(id, cursor)
		if err != nil {
			return nil, err
		}
		cursor += len(evs)
		for _, e := range evs {
			if e.Type == "job" && serve.Settled(e.State) {
				st, ok := c.Job(id)
				if !ok {
					return nil, fmt.Errorf("job %s vanished", id)
				}
				if st.State != serve.JobDone {
					return nil, fmt.Errorf("job %s settled %s with %d quarantined shards", id, st.State, st.Quarantined)
				}
				return st, nil
			}
		}
		if len(evs) > 0 {
			continue
		}
		select {
		case <-notify:
		case <-timeout.C:
			return nil, fmt.Errorf("job %s did not settle within %v", id, serviceTimeout)
		}
	}
}

// serviceSetup times one cold Submit.
func (b *bench) serviceSetup() (time.Duration, error) {
	svc, err := b.startService()
	if err != nil {
		return 0, err
	}
	c := serve.NewClient(svc.url)
	modcache.Shared.Reset()
	t0 := time.Now()
	_, err = c.Submit(b.serviceSpec())
	d := time.Since(t0)
	return d, errors.Join(err, svc.stop())
}

// serviceProbe times the set-up each worker performs on its first lease of
// a job (golden run, profile, shard plan) and single experiments of the
// job's first shard.
func (b *bench) serviceProbe(tr *tracer, _ *rep) (*probe, error) {
	w, err := specaccel.ByName(serviceProgram)
	if err != nil {
		return nil, err
	}
	root := tr.begin("main", "probe", "bench", -1)
	defer tr.end(root)
	modcache.Shared.Reset()
	out := &rep{}
	r := campaign.Runner{}
	s, err := setupProgram(tr, root, r, w, b.serviceConfig(), out)
	if err != nil {
		return nil, err
	}
	p := &probe{setup: out}
	return p, b.experimentProbe(tr, root, r, w, s, nil, p)
}

// serviceOracle runs the same spec in-process.
func (b *bench) serviceOracle() (map[string]string, error) {
	cfg := b.serviceConfig()
	cfg.Parallel = b.nproc
	res, err := plainCampaign(serviceProgram, cfg)
	if err != nil {
		return nil, err
	}
	return map[string]string{serviceProgram + "/tally": tallyKey(res.Tally)}, nil
}
