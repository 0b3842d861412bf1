package campaign_test

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/sass"
	"repro/internal/specaccel"
)

// selectBench is the campaign the selection benchmarks plan: every
// accelerator plus adaptive stopping on 356.sp with a 3000-experiment
// budget, the largest selection the adaptive-ckpt perfbench workload makes.
func selectBench(b *testing.B) (*campaign.GoldenResult, *core.Profile, campaign.TransientCampaignConfig) {
	b.Helper()
	w, err := specaccel.ByName("356.sp")
	if err != nil {
		b.Fatal(err)
	}
	r := campaign.Runner{}
	golden, err := r.Golden(w)
	if err != nil {
		b.Fatal(err)
	}
	profile, _, err := r.Profile(w, core.Exact)
	if err != nil {
		b.Fatal(err)
	}
	cfg := campaign.TransientCampaignConfig{
		Group: sass.GroupGPPR, BitFlip: core.FlipSingleBit, Seed: 1,
		Checkpoint: true, Prune: true, Classes: true,
		TargetCI: 0.03, Confidence: 0.95, MaxInjections: 3000,
	}
	return golden, profile, cfg
}

// BenchmarkSelectShard selects every shard of the campaign through the
// exported per-shard entry point, as a service worker leasing all of them
// would.
func BenchmarkSelectShard(b *testing.B) {
	_, profile, cfg := selectBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < cfg.NumShards(); s++ {
			if _, err := campaign.SelectShard(profile, cfg, s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAdaptiveStrata derives the campaign's full-selection stratum
// composition, as the coordinator does for every adaptive job.
func BenchmarkAdaptiveStrata(b *testing.B) {
	golden, profile, cfg := selectBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := campaign.AdaptiveStrata(golden, profile, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
