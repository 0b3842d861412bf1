package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/modcache"
	"repro/internal/sass"
	"repro/internal/sassan"
	"repro/internal/specaccel"
)

// Workload sizes. A fig2-sweep repetition runs fig2Injections experiments on
// each of the 15 programs; adaptive-ckpt stops each program's campaign at
// ±adaptiveCI (95%) or adaptiveBudget experiments; service-2w runs
// serviceInjections omriq experiments in serviceShardSize-experiment shards.
const (
	fig2Injections    = 24
	adaptiveCI        = 0.03
	adaptiveBudget    = 3000
	serviceProgram    = "314.omriq"
	serviceInjections = 1500
	serviceShardSize  = 15
	serviceWorkers    = 2
	// probeExperiments is how many selected parameter tuples per program the
	// traced run replays one at a time through Runner.RunTransient.
	probeExperiments = 12
)

var adaptivePrograms = []string{"303.ostencil", "356.sp"}

// unit is one campaign of a repetition: its experiment count and the
// deterministic values checked against the reference or the oracle.
type unit struct {
	name    string
	n       int
	failed  int
	digests map[string]string
}

// rep is one cold, measured repetition of a workload.
type rep struct {
	wall, setup time.Duration
	n           int // summed tally N
	units       []*unit

	// Layer inputs, reported by the traced run.
	golden, profile, plan time.Duration
	goldenWarp            uint64
	expWarp               uint64
	expRun                time.Duration // summed experiment durations
	executed, budget      int
	stopShards            int
	restored, earlyExits  int
	mc                    modcache.Stats
	allocBytes            uint64
	gcCycles              uint32
	svc                   *serveStats
	traceRep              int // the tracer's label for this repetition
	// first holds the outcomes of each program's first probeExperiments
	// runs, which the experiment probe re-derives one at a time.
	first map[string][]campaign.Outcome
}

// probe holds the traced run's stand-alone measurements of single layers.
type probe struct {
	experiments          []time.Duration
	mismatches           int
	analyze, traceRecord time.Duration
	checkpoints          int
	// setup is service-2w's stand-alone job set-up, timed like a worker's
	// first lease of the job; nil elsewhere.
	setup *rep
}

// workload is one benchmark workload.
type workload struct {
	name     string
	programs []string
	// rep runs one cold repetition; tr is nil when the repetition is untraced.
	rep func(b *bench, tr *tracer) (*rep, error)
	// setup runs one cold set-up only, for the setup_s median.
	setup func(b *bench) (time.Duration, error)
	// probe times single layers outside any repetition.
	probe func(b *bench, tr *tracer, first *rep) (*probe, error)
	// oracle computes the expected digests of a seed with untimed plain
	// from-scratch in-process campaigns.
	oracle func(b *bench) (map[string]string, error)
}

func workloads() []*workload {
	return []*workload{
		{
			name:     "fig2-sweep",
			programs: specaccel.Names(),
			rep:      func(b *bench, tr *tracer) (*rep, error) { return b.inprocRep(tr, b.fig2Config(), runFixed) },
			setup:    func(b *bench) (time.Duration, error) { return b.inprocSetup(b.fig2Config()) },
			probe: func(b *bench, tr *tracer, first *rep) (*probe, error) {
				return b.inprocProbe(tr, first, b.fig2Config())
			},
			oracle: (*bench).fig2Oracle,
		},
		{
			name:     "adaptive-ckpt",
			programs: adaptivePrograms,
			rep:      func(b *bench, tr *tracer) (*rep, error) { return b.inprocRep(tr, b.adaptiveConfig(), runAdaptive) },
			setup:    func(b *bench) (time.Duration, error) { return b.inprocSetup(b.adaptiveConfig()) },
			probe: func(b *bench, tr *tracer, first *rep) (*probe, error) {
				return b.inprocProbe(tr, first, b.adaptiveConfig())
			},
			oracle: (*bench).adaptiveOracle,
		},
		{
			name:     "service-2w",
			programs: []string{serviceProgram},
			rep:      (*bench).serviceRep,
			setup:    (*bench).serviceSetup,
			probe:    (*bench).serviceProbe,
			oracle:   (*bench).serviceOracle,
		},
	}
}

// fig2Config is the paper's Fig. 2/5 campaign: fixed count, G_GPPR,
// single-bit flips, no accelerators.
func (b *bench) fig2Config() campaign.TransientCampaignConfig {
	return campaign.TransientCampaignConfig{
		Injections: fig2Injections, Group: sass.GroupGPPR, BitFlip: core.FlipSingleBit,
		Seed: b.seed, Parallel: b.nproc,
	}
}

// adaptiveConfig enables every accelerator: checkpoint restore with early
// exit, dead-destination pruning, class sampling and adaptive stopping.
func (b *bench) adaptiveConfig() campaign.TransientCampaignConfig {
	return campaign.TransientCampaignConfig{
		Group: sass.GroupGPPR, BitFlip: core.FlipSingleBit, Seed: b.seed, Parallel: b.nproc,
		Checkpoint: true, Prune: true, Classes: true,
		TargetCI: adaptiveCI, Confidence: 0.95, MaxInjections: adaptiveBudget,
	}
}

// plainConfig strips the accelerators from a config, leaving the campaign
// whose tally they must reproduce.
func plainConfig(cfg campaign.TransientCampaignConfig) campaign.TransientCampaignConfig {
	cfg.Checkpoint, cfg.Prune, cfg.Classes = false, false, false
	return cfg
}

// outcomeKey encodes the part of a tally that accelerators must not change:
// the outcome counts and the strata, but not the counts of experiments each
// accelerator answered or shortened.
func outcomeKey(t *campaign.Tally) string {
	b, err := json.Marshal(struct {
		N, SDC, DUE, Masked, PotentialDUEs int
		Strata                             []campaign.StratumTally
	}{t.N, t.Counts[campaign.SDC], t.Counts[campaign.DUE], t.Counts[campaign.Masked], t.PotentialDUEs, t.Strata})
	if err != nil {
		panic(err) // plain ints and strings always marshal
	}
	return string(b)
}

func tallyKey(t *campaign.Tally) string {
	b, err := json.Marshal(t)
	if err != nil {
		panic(err) // Tally.MarshalJSON cannot fail
	}
	return string(b)
}

// campaignFunc runs one program's campaign after set-up and fills the unit
// and the repetition's layer counters. It returns the campaign's runs.
type campaignFunc func(tr *tracer, parent int, r campaign.Runner, w campaign.Workload, s *setupResult,
	out *rep, u *unit) ([]campaign.RunResult, error)

// setupResult is one program's campaign set-up.
type setupResult struct {
	golden  *campaign.GoldenResult
	profile *core.Profile
	plan    *campaign.ShardPlan
	weights []campaign.StratumWeight
	cfg     campaign.TransientCampaignConfig
}

// setupProgram performs a program's set-up: golden run, profile, shard plan
// and, for an adaptive campaign, the stratum weights the stopping rule pools
// against. Each call is timed into out when out is non-nil.
func setupProgram(tr *tracer, parent int, r campaign.Runner, w campaign.Workload,
	cfg campaign.TransientCampaignConfig, out *rep) (*setupResult, error) {
	s := &setupResult{cfg: cfg}
	t0 := time.Now()
	id := tr.begin("main", "campaign.Runner.Golden", "gpu", parent)
	golden, err := r.Golden(w)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	id = tr.begin("main", "campaign.Runner.Profile", "nvbit", parent)
	profile, _, err := r.Profile(w, core.Exact)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	id = tr.begin("main", "campaign.NewShardPlan", "campaign", parent)
	plan, err := campaign.NewShardPlan(r, w, golden, profile, cfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if cfg.TargetCI > 0 {
		id = tr.begin("main", "campaign.AdaptiveStrata", "campaign", parent)
		s.weights, err = campaign.AdaptiveStrata(golden, profile, cfg)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	t3 := time.Now()
	s.golden, s.profile, s.plan = golden, profile, plan
	if out != nil {
		out.golden += t1.Sub(t0)
		out.profile += t2.Sub(t1)
		out.plan += t3.Sub(t2)
		out.setup += t3.Sub(t0)
		out.goldenWarp += golden.Stats.WarpInstrs
	}
	return s, nil
}

// inprocRep runs one cold repetition of an in-process workload: every
// program's set-up and campaign in turn.
func (b *bench) inprocRep(tr *tracer, cfg campaign.TransientCampaignConfig, run campaignFunc) (*rep, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	out := &rep{first: make(map[string][]campaign.Outcome)}
	r := campaign.Runner{}
	start := time.Now()
	root := tr.begin("main", "rep", "bench", -1)
	id := tr.begin("main", "modcache.Cache.Reset", "modcache", root)
	modcache.Shared.Reset()
	tr.end(id)
	for _, name := range b.wl.programs {
		u := &unit{name: name, digests: make(map[string]string)}
		out.units = append(out.units, u)
		w, err := specaccel.ByName(name)
		if err != nil {
			return nil, err
		}
		s, err := setupProgram(tr, root, r, w, cfg, out)
		if err != nil {
			u.n, u.failed = max(cfg.Injections, cfg.MaxInjections), max(cfg.Injections, cfg.MaxInjections)
			u.digests[name+"/error"] = err.Error()
			continue
		}
		runs, err := run(tr, root, r, w, s, out, u)
		if err != nil {
			u.digests[name+"/error"] = err.Error()
		}
		for i := range runs {
			out.expWarp += runs[i].Stats.WarpInstrs
			out.expRun += runs[i].Duration
		}
		for i := 0; i < len(runs) && i < probeExperiments; i++ {
			out.first[name] = append(out.first[name], runs[i].Class.Outcome)
		}
		out.n += u.n - u.failed
	}
	id = tr.begin("main", "modcache.Cache.Stats", "modcache", root)
	out.mc = modcache.Shared.Stats()
	tr.end(id)
	tr.end(root)
	out.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	out.gcCycles = ms1.NumGC - ms0.NumGC
	return out, nil
}

// countRuns folds a campaign's tally into the repetition's counters.
func countRuns(t *campaign.Tally, out *rep, u *unit) {
	executed := t.N - t.Pruned - t.ClassAnswered
	out.executed += executed
	out.restored += t.Restored
	out.earlyExits += t.EarlyExits
	u.digests[u.name+"/executed"] = strconv.Itoa(executed)
}

// runFixed runs a fixed-count campaign with RunTransientCampaign.
func runFixed(tr *tracer, parent int, r campaign.Runner, w campaign.Workload, s *setupResult,
	out *rep, u *unit) ([]campaign.RunResult, error) {
	u.n = s.cfg.Injections
	out.budget += s.cfg.Injections
	id := tr.begin("main", "campaign.RunTransientCampaign", "campaign", parent)
	res, err := campaign.RunTransientCampaign(context.Background(), r, w, s.golden, s.profile, s.cfg)
	tr.end(id)
	if res == nil {
		u.failed = u.n
		return nil, err
	}
	u.failed = u.n - res.Tally.N
	countRuns(res.Tally, out, u)
	var warp uint64
	for i := range res.Runs {
		warp += res.Runs[i].Stats.WarpInstrs
	}
	u.digests[u.name+"/tally"] = tallyKey(res.Tally)
	u.digests[u.name+"/warp"] = strconv.FormatUint(warp, 10)
	return res.Runs, err
}

// runAdaptive drives an adaptive campaign shard by shard through the plan's
// public API, evaluating the stopping rule at every shard boundary exactly
// as the in-process runner and the service coordinator do.
func runAdaptive(tr *tracer, parent int, r campaign.Runner, w campaign.Workload, s *setupResult,
	out *rep, u *unit) ([]campaign.RunResult, error) {
	cfg := s.plan.Config()
	out.budget += cfg.MaxInjections
	acc := campaign.NewTally()
	var runs []campaign.RunResult
	stop := -1
	for shard := 0; shard < s.plan.NumShards(); shard++ {
		id := tr.begin("main", "campaign.ShardPlan.RunShard", "campaign", parent)
		res, err := s.plan.RunShard(context.Background(), shard)
		tr.end(id)
		lo, hi := cfg.ShardRange(shard)
		if err != nil {
			u.n += hi - lo
			u.failed += hi - lo
			return runs, err
		}
		u.n += len(res)
		runs = append(runs, res...)
		acc.Merge(campaign.TallyRuns(res))
		stop = shard
		if _, converged := campaign.AdaptiveDecision(acc, s.weights, cfg); converged {
			break
		}
	}
	out.stopShards += stop
	countRuns(acc, out, u)
	u.digests[u.name+"/tally"] = tallyKey(acc)
	u.digests[u.name+"/outcome"] = outcomeKey(acc)
	u.digests[u.name+"/stop"] = strconv.Itoa(stop)
	return runs, nil
}

// inprocSetup performs one cold set-up of every program of the workload.
func (b *bench) inprocSetup(cfg campaign.TransientCampaignConfig) (time.Duration, error) {
	modcache.Shared.Reset()
	out := &rep{}
	for _, name := range b.wl.programs {
		w, err := specaccel.ByName(name)
		if err != nil {
			return 0, err
		}
		if _, err := setupProgram(nil, -1, campaign.Runner{}, w, cfg, out); err != nil {
			return 0, err
		}
	}
	return out.setup, nil
}

// inprocProbe times single layers of an in-process workload: one experiment
// at a time through Runner.RunTransient on the first selected tuples of
// each program, checked against the outcomes the campaign gave them, and,
// when the config checkpoints, sassan's analysis and trace recording.
func (b *bench) inprocProbe(tr *tracer, first *rep, cfg campaign.TransientCampaignConfig) (*probe, error) {
	p := &probe{}
	r := campaign.Runner{}
	root := tr.begin("main", "probe", "bench", -1)
	defer tr.end(root)
	for _, name := range b.wl.programs {
		w, err := specaccel.ByName(name)
		if err != nil {
			return nil, err
		}
		s, err := setupProgram(nil, -1, r, w, cfg, nil)
		if err != nil {
			return nil, err
		}
		if err := b.experimentProbe(tr, root, r, w, s, first.first[name], p); err != nil {
			return nil, err
		}
		if !cfg.Checkpoint {
			continue
		}
		names := make([]string, 0, len(s.golden.Kernels))
		for k := range s.golden.Kernels {
			names = append(names, k)
		}
		sort.Strings(names)
		t0 := time.Now()
		id := tr.begin("main", "sassan.Analyze+BuildClassTable", "sassan", root)
		for _, k := range names {
			sassan.Analyze(s.golden.Kernels[k]).BuildClassTable()
		}
		tr.end(id)
		p.analyze += time.Since(t0)
		// The stride NewShardPlan derives when the config leaves it unset.
		stride := max(s.golden.Stats.WarpInstrs/campaign.DefaultCheckpointCount, campaign.MinCheckpointStride)
		t0 = time.Now()
		id = tr.begin("main", "campaign.Runner.RecordTrace", "cuda", root)
		trace, err := r.RecordTrace(w, s.golden, stride)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		p.traceRecord += time.Since(t0)
		p.checkpoints += trace.Checkpoints()
	}
	return p, nil
}

// experimentProbe runs the first selected tuples of a campaign one at a
// time from scratch and, when want is non-nil, checks each outcome against
// the one the campaign gave it.
func (b *bench) experimentProbe(tr *tracer, parent int, r campaign.Runner, w campaign.Workload,
	s *setupResult, want []campaign.Outcome, p *probe) error {
	params, err := campaign.SelectShard(s.profile, s.cfg, 0)
	if err != nil {
		return err
	}
	for i := 0; i < len(params) && i < probeExperiments; i++ {
		t0 := time.Now()
		id := tr.begin("main", "campaign.Runner.RunTransient", "campaign", parent)
		res, err := r.RunTransient(context.Background(), w, s.golden, params[i])
		tr.end(id)
		if err != nil {
			return err
		}
		p.experiments = append(p.experiments, time.Since(t0))
		if want != nil && (i >= len(want) || res.Class.Outcome != want[i]) {
			p.mismatches++
		}
	}
	return nil
}

// fig2Oracle reruns the sweep's campaigns, each with a fresh golden run and
// profile, through RunTransientCampaign.
func (b *bench) fig2Oracle() (map[string]string, error) {
	cfg := b.fig2Config()
	want := make(map[string]string)
	for _, name := range b.wl.programs {
		res, err := plainCampaign(name, cfg)
		if err != nil {
			return nil, err
		}
		var warp uint64
		for i := range res.Runs {
			warp += res.Runs[i].Stats.WarpInstrs
		}
		want[name+"/tally"] = tallyKey(res.Tally)
		want[name+"/warp"] = strconv.FormatUint(warp, 10)
		want[name+"/executed"] = strconv.Itoa(res.Tally.N)
	}
	return want, nil
}

// adaptiveOracle reruns each adaptive campaign without accelerators: every
// experiment from scratch, every member of a class executed.
func (b *bench) adaptiveOracle() (map[string]string, error) {
	cfg := plainConfig(b.adaptiveConfig())
	want := make(map[string]string)
	for _, name := range b.wl.programs {
		res, err := plainCampaign(name, cfg)
		if err != nil {
			return nil, err
		}
		want[name+"/outcome"] = outcomeKey(res.Tally)
		want[name+"/stop"] = strconv.Itoa(res.Adaptive.StopShard)
	}
	return want, nil
}

// plainCampaign runs one program's campaign from a fresh golden run and
// profile with RunTransientCampaign.
func plainCampaign(name string, cfg campaign.TransientCampaignConfig) (*campaign.CampaignResult, error) {
	w, err := specaccel.ByName(name)
	if err != nil {
		return nil, err
	}
	r := campaign.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		return nil, err
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		return nil, err
	}
	res, err := campaign.RunTransientCampaign(context.Background(), r, w, golden, profile, cfg)
	if err != nil {
		return nil, fmt.Errorf("oracle campaign of %s: %w", name, err)
	}
	return res, nil
}
