package main

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// host identifies the machine a result was measured on; results are only
// comparable between runs with the same host record.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func hostRecord() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if v, ok := procField("/proc/cpuinfo", "model name"); ok {
		h.CPUModel = v
	}
	return h
}

// procField returns the value of the first "key : value" line of a /proc
// file whose key is key.
func procField(path, key string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}

// peakRSSMB is the process's peak resident set size (VmHWM), falling back
// to the Go runtime's total reservation where /proc is unavailable.
func peakRSSMB() float64 {
	if v, ok := procField("/proc/self/status", "VmHWM"); ok {
		if kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64); err == nil {
			return kb / 1024
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durMS converts durations to milliseconds.
func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
