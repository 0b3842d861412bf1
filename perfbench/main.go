// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time and prints its end-to-end metrics, or with
// --trace 1 its per-layer metrics, followed by a one-line JSON result.
//
// Build and run it from the repository root through the wrapper, which
// keeps the Go build cache inside the checkout:
//
//	bash perfbench/run.sh --workload fig2-sweep --seed 1 --seconds 10 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/modcache"
)

// defaultSeed is the seed whose deterministic values are recorded in
// refs.json; every other seed is checked against an untimed oracle run.
const defaultSeed = 1

// Each run repeats set-up alone until it has at least minSetupSamples
// set-up timings covering at least minSetupTime, capped at maxSetupSamples.
const (
	minSetupSamples = 4
	maxSetupSamples = 40
	minSetupTime    = 2 * time.Second
)

//go:embed refs.json
var refsJSON []byte

// bench is one run's state.
type bench struct {
	wl      *workload
	seed    int64
	nproc   int
	workers int
	tmpDir  string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	names := make([]string, 0, 3)
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	wlName := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", defaultSeed, "seed the workload's campaigns select faults with")
	seconds := flag.Int("seconds", 10, "how long to repeat measured repetitions")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from traced repetitions")
	writeRefs := flag.Bool("write-refs", false, "print the workload's reference digests for the default seed and exit")
	flag.Parse()

	var wl *workload
	for _, w := range workloads() {
		if w.name == *wlName {
			wl = w
		}
	}
	if wl == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	outDir := filepath.Join(cwd, ".bench_build", "perfbench-out")
	b := &bench{wl: wl, seed: *seed, nproc: runtime.NumCPU(), tmpDir: filepath.Join(outDir, "tmp")}
	b.workers = min(serviceWorkers, b.nproc)
	if err := os.MkdirAll(b.tmpDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *writeRefs {
		return b.writeRefs()
	}
	res, err := b.measure(time.Duration(*seconds)*time.Second, *traced == 1, outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// expected returns the digests every repetition must reproduce: the
// recorded references for the default seed, an oracle run's otherwise.
func (b *bench) expected() (map[string]string, string, error) {
	if b.seed == defaultSeed {
		var refs map[string]map[string]string
		if err := json.Unmarshal(refsJSON, &refs); err != nil {
			return nil, "", fmt.Errorf("refs.json: %w", err)
		}
		if refs[b.wl.name] == nil {
			return nil, "", fmt.Errorf("refs.json has no entry for %s", b.wl.name)
		}
		return refs[b.wl.name], "refs.json", nil
	}
	want, err := b.wl.oracle(b)
	return want, "oracle", err
}

// verify checks every repetition's digests: against want where it names
// the key, otherwise against the first repetition (values the plain oracle
// cannot produce, such as checkpoint restores, must still repeat exactly).
// A unit that reports an error or lacks a digest want names for it fails
// too. A failing unit counts all its experiments as failed. It returns the
// number of digests checked against want.
func verify(reps []*rep, want map[string]string) (checked int, mismatches []string) {
	first := make(map[string]string)
	for ri, r := range reps {
		for _, u := range r.units {
			bad := false
			for k := range want {
				if _, ok := u.digests[k]; !ok && strings.HasPrefix(k, u.name+"/") {
					bad = true
					mismatches = append(mismatches, fmt.Sprintf("rep %d %s: missing", ri+1, k))
				}
			}
			keys := make([]string, 0, len(u.digests))
			for k := range u.digests {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				v := u.digests[k]
				if strings.HasSuffix(k, "/error") {
					bad = true
					mismatches = append(mismatches, fmt.Sprintf("rep %d %s", ri+1, v))
					continue
				}
				ref, ok := want[k]
				if ok {
					checked++
				} else if ref, ok = first[k]; !ok {
					first[k], ref = v, v
				}
				if v != ref {
					bad = true
					mismatches = append(mismatches, fmt.Sprintf("rep %d %s: got %s, want %s", ri+1, k, v, ref))
				}
			}
			if bad {
				u.failed = u.n
			}
		}
	}
	return checked, mismatches
}

// measure runs the workload's repetitions for d, then the set-up samples or
// the probes, then the correctness check, and assembles the result.
func (b *bench) measure(d time.Duration, traced bool, outDir string) (*result, error) {
	h := hostRecord()
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s cpu=%q\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel)
	fmt.Printf("workload %s seed %d: measuring for %v (trace=%v)\n", b.wl.name, b.seed, d, traced)
	var tr *tracer
	if traced {
		tr = newTracer(b.wl.name)
	}
	// Untraced runs measure repetitions back to back; traced runs alternate
	// untraced and traced repetitions, so the difference of their medians is
	// the tracing overhead.
	var reps, tracedReps, plainReps []*rep
	start := time.Now()
	for i := 0; ; i++ {
		var rtr *tracer
		if traced && i%2 == 1 {
			rtr = tr
			tr.setRep(i)
		}
		r, err := b.wl.rep(b, rtr)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i+1, err)
		}
		r.traceRep = i
		reps = append(reps, r)
		if rtr != nil {
			tracedReps = append(tracedReps, r)
		} else {
			plainReps = append(plainReps, r)
		}
		fmt.Printf("rep %d%s: wall %.4f s, setup %.4f s, n %d\n", i+1, map[bool]string{true: " (traced)"}[rtr != nil],
			r.wall.Seconds(), r.setup.Seconds(), r.n)
		if time.Since(start) >= d && (!traced || len(tracedReps) > 0) {
			break
		}
	}
	peakRSS := peakRSSMB()

	var setups []float64
	var spent float64
	for _, r := range reps {
		setups = append(setups, r.setup.Seconds())
		spent += r.setup.Seconds()
	}
	var p *probe
	if traced {
		tr.setRep(-1)
		var err error
		if p, err = b.wl.probe(b, tr, reps[0]); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	} else {
		for len(setups) < maxSetupSamples && (len(setups) < minSetupSamples || spent < minSetupTime.Seconds()) {
			s, err := b.wl.setup(b)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, s.Seconds())
			spent += s.Seconds()
		}
	}

	want, source, err := b.expected()
	if err != nil {
		return nil, err
	}
	checked, mismatches := verify(reps, want)
	for _, m := range mismatches {
		fmt.Println("MISMATCH", m)
	}
	attempted, failed := 0, 0
	for _, r := range reps {
		for _, u := range r.units {
			attempted += u.n
			failed += u.failed
		}
	}
	correct := len(mismatches) == 0 && failed == 0 && checked > 0
	fmt.Printf("check: %d repetitions, %d digests against %s, %d mismatches\n", len(reps), checked, source, len(mismatches))
	mc := reps[0].mc
	fmt.Printf("modcache delta per repetition: codec %d/%d assemble %d/%d decode %d/%d plan %d/%d (hits/builds)\n",
		mc.CodecHits, mc.CodecBuilds, mc.AssembleHits, mc.AssembleBuilds, mc.DecodeHits, mc.DecodeBuilds, mc.PlanHits, mc.PlanBuilds)

	res := &result{Attempted: attempted, Failed: failed, Metrics: make(map[string]metric)}
	if traced {
		recErr, err := b.layerMetrics(res, tr, tracedReps, plainReps, p)
		if err != nil {
			return nil, err
		}
		if recErr != nil {
			fmt.Println("RECONCILE", recErr)
			correct = false
		}
		if p.mismatches > 0 {
			fmt.Printf("MISMATCH experiment probe: %d single experiments disagree with their campaign\n", p.mismatches)
			correct = false
		}
	} else {
		var walls, rates []float64
		for _, r := range reps {
			walls = append(walls, r.wall.Seconds())
			rates = append(rates, float64(r.n)/(r.wall-r.setup).Seconds())
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["wall_s"] = metric{median(walls), "s"}
		res.Metrics["injections_per_s"] = metric{median(rates), "1/s"}
		res.Metrics["peak_rss_mb"] = metric{peakRSS, "MB"}
		res.Metrics["ok_ratio"] = metric{1 - float64(failed)/float64(max(attempted, 1)), "ratio"}
		fmt.Printf("failed_ratio %.6f (%d of %d experiments)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
		fmt.Printf("setup samples: %d, repetitions: %d\n", len(setups), len(reps))
	}
	res.Correct = correct
	printMetrics(res.Metrics)

	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", b.wl.name, b.seed, map[bool]int{true: 1}[traced]))
	if err := tr.write(stem + ".spans.jsonl"); err != nil {
		return nil, err
	}
	record, err := json.MarshalIndent(struct {
		Host     host           `json:"host"`
		Workload string         `json:"workload"`
		Seed     int64          `json:"seed"`
		Result   *result        `json:"result"`
		Modcache modcache.Stats `json:"modcache_delta"`
		Mismatch []string       `json:"mismatches,omitempty"`
	}{h, b.wl.name, b.seed, res, mc, mismatches}, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(stem+".json", record, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// writeRefs runs the oracle and one repetition for the default seed,
// checks that they agree, and prints the merged digests as a refs.json
// entry.
func (b *bench) writeRefs() int {
	if b.seed != defaultSeed {
		fmt.Fprintf(os.Stderr, "perfbench: references are recorded for seed %d only\n", defaultSeed)
		return 2
	}
	want, err := b.wl.oracle(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r, err := b.wl.rep(b, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if _, mismatches := verify([]*rep{r}, want); len(mismatches) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: repetition disagrees with the oracle:\n"+strings.Join(mismatches, "\n"))
		return 1
	}
	for _, u := range r.units {
		for k, v := range u.digests {
			want[k] = v
		}
	}
	out, err := json.MarshalIndent(map[string]map[string]string{b.wl.name: want}, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
