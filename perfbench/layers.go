package main

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// selfLayers are the layers whose self time the traced repetitions report;
// every workload reports all of them, zero where a layer is not called.
var selfLayers = []string{"gpu", "nvbit", "campaign", "serve", "modcache"}

// layerMetrics fills res with the per-layer metrics: medians over the
// traced repetitions, the probes' stand-alone timings, and the self times
// of the main lane's spans. It returns a non-nil reconcileErr when some
// lane's self times do not add up to its wall time.
func (b *bench) layerMetrics(res *result, tr *tracer, traced, plain []*rep, p *probe) (reconcileErr error, err error) {
	if len(traced) == 0 {
		return nil, errors.New("no traced repetition")
	}
	m := res.Metrics
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	med := func(reps []*rep, f func(r *rep) float64) float64 {
		vs := make([]float64, len(reps))
		for i, r := range reps {
			vs[i] = f(r)
		}
		return median(vs)
	}
	// The service's set-up runs inside the coordinator and the workers, out
	// of reach of a wrapper; its probe repeats one worker's job set-up.
	setupReps := traced
	if p.setup != nil {
		setupReps = []*rep{p.setup}
	}

	set("gpu.golden_mwarpinstr_per_s", med(setupReps, func(r *rep) float64 {
		return ratio(float64(r.goldenWarp), r.golden.Seconds()) / 1e6
	}), "Mwarpinstr/s")
	set("gpu.exp_warpinstrs", med(traced, func(r *rep) float64 { return float64(r.expWarp) }), "count")
	set("gpu.exp_mwarpinstr_per_s", med(traced, func(r *rep) float64 {
		return ratio(float64(r.expWarp), r.expRun.Seconds()) / 1e6
	}), "Mwarpinstr/s")

	exp := durMS(p.experiments)
	set("campaign.experiment_ms.p50", quantile(exp, 0.5), "ms")
	set("campaign.experiment_ms.p90", quantile(exp, 0.9), "ms")
	set("campaign.golden_s", med(setupReps, func(r *rep) float64 { return r.golden.Seconds() }), "s")
	set("campaign.profile_s", med(setupReps, func(r *rep) float64 { return r.profile.Seconds() }), "s")
	set("campaign.plan_s", med(setupReps, func(r *rep) float64 { return r.plan.Seconds() }), "s")
	set("campaign.executed", med(traced, func(r *rep) float64 { return float64(r.executed) }), "count")
	set("campaign.stop_shard", med(traced, func(r *rep) float64 { return float64(r.stopShards) }), "count")
	set("campaign.executed_ratio", med(traced, func(r *rep) float64 {
		return ratio(float64(r.executed), float64(r.budget))
	}), "ratio")

	set("modcache.plan_builds", med(traced, func(r *rep) float64 { return float64(r.mc.PlanBuilds) }), "count")
	set("modcache.plan_hit_ratio", med(traced, func(r *rep) float64 {
		return ratio(float64(r.mc.PlanHits), float64(r.mc.PlanHits+r.mc.PlanBuilds))
	}), "ratio")
	set("modcache.decode_hit_ratio", med(traced, func(r *rep) float64 {
		return ratio(float64(r.mc.DecodeHits), float64(r.mc.DecodeHits+r.mc.DecodeBuilds))
	}), "ratio")

	set("nvbit.profile_overhead_x", med(setupReps, func(r *rep) float64 {
		return ratio(r.profile.Seconds(), r.golden.Seconds())
	}), "x")
	set("sassan.analyze_s", p.analyze.Seconds(), "s")
	set("cuda.trace_record_s", p.traceRecord.Seconds(), "s")
	set("cuda.checkpoints", float64(p.checkpoints), "count")
	set("cuda.restored_ratio", med(traced, func(r *rep) float64 {
		return ratio(float64(r.restored), float64(r.executed))
	}), "ratio")
	set("cuda.early_exit_ratio", med(traced, func(r *rep) float64 {
		return ratio(float64(r.earlyExits), float64(r.executed))
	}), "ratio")

	var leases, completes []time.Duration
	svc := func(f func(s *serveStats) float64) float64 {
		return med(traced, func(r *rep) float64 {
			if r.svc == nil {
				return 0
			}
			return f(r.svc)
		})
	}
	for _, r := range traced {
		if r.svc != nil {
			leases = append(leases, r.svc.lease...)
			completes = append(completes, r.svc.complete...)
		}
	}
	set("serve.submit_s", svc(func(s *serveStats) float64 { return s.submit.Seconds() }), "s")
	set("serve.lease_rtt_ms.p50", quantile(durMS(leases), 0.5), "ms")
	set("serve.lease_rtt_ms.p90", quantile(durMS(leases), 0.9), "ms")
	set("serve.complete_rtt_ms.p50", quantile(durMS(completes), 0.5), "ms")
	set("serve.complete_rtt_ms.p90", quantile(durMS(completes), 0.9), "ms")
	set("serve.empty_leases", svc(func(s *serveStats) float64 { return float64(s.empty) }), "count")
	set("serve.lost_or_failed_leases", svc(func(s *serveStats) float64 { return float64(s.lostOrFailed) }), "count")
	set("serve.busy_frac", med(traced, func(r *rep) float64 {
		if r.svc == nil {
			return 0
		}
		return ratio(r.svc.busy.Seconds(), float64(b.workers)*r.wall.Seconds())
	}), "ratio")

	set("runtime.alloc_mb", med(traced, func(r *rep) float64 { return float64(r.allocBytes) / (1 << 20) }), "MB")
	set("runtime.gc_cycles", med(traced, func(r *rep) float64 { return float64(r.gcCycles) }), "count")

	// Self times of the main lane, reconciled with each traced wall.
	self := make(map[string][]float64)
	var unaccounted []float64
	var errs []error
	for _, r := range traced {
		lanes := tr.selfTimes(r.traceRep)
		names := make([]string, 0, len(lanes))
		for lane := range lanes {
			names = append(names, lane)
		}
		slices.Sort(names)
		for _, lane := range names {
			lt := lanes[lane]
			errs = append(errs, lt.reconcileErr)
			if lane != "main" {
				// A service worker's lane: its calls, the shards between
				// grant and report, and the idle rest of Worker.Run.
				fmt.Printf("rep %d %s: %s + idle %.4f s = %.4f s\n", r.traceRep+1, lane, formatSelf(lt.selfUS),
					float64(lt.unaccountUS)/1e6, float64(lt.wallUS)/1e6)
				continue
			}
			var sum int64
			for _, l := range selfLayers {
				self[l] = append(self[l], float64(lt.selfUS[l])/1e6)
				sum += lt.selfUS[l]
			}
			for l, us := range lt.selfUS {
				if !slices.Contains(selfLayers, l) {
					errs = append(errs, fmt.Errorf("layer %s missing from the self-time report", l))
					sum += us
				}
			}
			unaccounted = append(unaccounted, float64(lt.unaccountUS)/1e6)
			fmt.Printf("rep %d self times: %s + unaccounted %.4f s = %.4f s, traced wall %.4f s\n",
				r.traceRep+1, formatSelf(lt.selfUS), float64(lt.unaccountUS)/1e6, float64(sum+lt.unaccountUS)/1e6, r.wall.Seconds())
		}
	}
	for _, l := range selfLayers {
		set("self."+l+"_s", median(self[l]), "s")
	}
	set("trace.unaccounted_s", median(unaccounted), "s")
	tw := med(traced, func(r *rep) float64 { return r.wall.Seconds() })
	set("trace.wall_s", tw, "s")
	set("trace.overhead_s", tw-med(plain, func(r *rep) float64 { return r.wall.Seconds() }), "s")
	return errors.Join(errs...), nil
}

func formatSelf(us map[string]int64) string {
	s := ""
	for _, l := range selfLayers {
		if us[l] != 0 {
			s += fmt.Sprintf("%s %.4f s + ", l, float64(us[l])/1e6)
		}
	}
	if s == "" {
		return "0"
	}
	return s[:len(s)-3]
}
