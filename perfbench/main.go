// Command perfbench is the repository's benchmark. One run executes one
// workload for a fixed time, checks the program's outputs, and prints a
// JSON result as its last line of standard output:
//
//	perfbench --workload local_mlp_train --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no instrumentation in the path. With --trace 1 the same workload runs
// once plain and once with spans recorded around every call the benchmark
// makes into the program, then the layer probes run; the result carries
// the per-layer metrics, and a Chrome trace-event file plus a per-layer
// self-time roll-up are written under .bench_build/out. README.md describes the
// workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them (see README.md for the per-workload definitions).
// They count process CPU time, not wall time: on a shared host whose
// hypervisor takes the CPU away in bursts, wall-clock throughput and
// latency moved by up to 45% between runs of one build while CPU time per
// example moved by about 5%. The wall-clock figures stay in the result
// record.
var endToEnd = []metricDef{
	{"cpu_ms_per_example", "ms"},
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
}

// perLayer are the traced run's metrics. A workload's traced run reports 0
// for the layers it does not cross and for the probes of other workloads.
var perLayer = []metricDef{
	{"tensor.matmul.gflops", "GFLOP/s"},
	{"tensor.elementwise.gbps", "GB/s"},
	{"tensor.flops_per_step", "MFLOP"},
	{"tensor.matmul_share", "ratio"},
	{"tensor.codec.mb_s", "MB/s"},
	{"exec.null_ops.mops_per_s", "Mop/s"},
	{"session.run_trivial.us", "us"},
	{"session.compile.ms", "ms"},
	{"graph.passes.ms", "ms"},
	{"autodiff.gradients.ms", "ms"},
	{"rpc.RunGraph.calls_per_step", "count"},
	{"rpc.RunGraph.kb_per_step", "KB"},
	{"rpc.RunGraph.us_p50", "us"},
	{"rpc.RunGraph.us_p99", "us"},
	{"rpc.RecvTensor.calls_per_step", "count"},
	{"rpc.RecvTensor.kb_per_step", "KB"},
	{"rpc.RecvTensor.us_p50", "us"},
	{"rpc.RecvTensor.us_p99", "us"},
	{"rpc.PushGradients.calls_per_step", "count"},
	{"rpc.PushGradients.kb_per_step", "KB"},
	{"rpc.PushGradients.us_p50", "us"},
	{"rpc.PushGradients.us_p99", "us"},
	{"rpc.RegisterGraph.calls_per_step", "count"},
	{"rpc.RegisterGraph.kb_per_step", "KB"},
	{"rpc.RegisterGraph.us_p50", "us"},
	{"rpc.RegisterGraph.us_p99", "us"},
	{"rpc.errors_per_step", "count"},
	{"master.null_step.us.inproc", "us"},
	{"master.null_step.us.tcp", "us"},
	{"rendezvous.sendrecv.ns", "ns"},
	{"ps.round_us_p50", "us"},
	{"ps.barrier_wait_us_p50", "us"},
	{"ps.push_applied_frac", "ratio"},
	{"train.step_compute_us_p50", "us"},
	{"serve.decode.us_p50", "us"},
	{"serve.predict.us_p50", "us"},
	{"serve.predict.us_p99", "us"},
	{"serve.encode.us_p50", "us"},
	{"serve.exec.us.rows1", "us"},
	{"serve.exec.us.rows64", "us"},
	{"go.alloc_kb_per_op", "KB"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"gen.lag_ms_p99", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// outDir, relative to the directory the benchmark runs in, receives the
// result records, traces and the serving workload's model exports.
const outDir = ".bench_build/out"

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

func (c config) budget(frac float64) time.Duration {
	return time.Duration(frac * c.seconds * float64(time.Second))
}

// outcome is what a workload reports back to main.
type outcome struct {
	e2e       map[string]float64 // end-to-end metrics (untraced run)
	layer     map[string]float64 // per-layer metrics (traced run)
	detail    map[string]any     // every figure with its unit and sample count
	attempted int64
	failed    int64
	checks    []string // failed output checks
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, detail: map[string]any{}}
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.checks = append(o.checks, fmt.Sprintf(format, args...))
	}
}

// figure records a named figure with its unit and sample count in the
// detail record.
func (o *outcome) figure(name string, value float64, unit string, n int) {
	o.detail[name] = map[string]any{"value": value, "unit": unit, "n": n}
}

// setupReps is how many times each workload sets up per run; setup_s is
// the median. A set-up takes 5–250 ms, short enough for one scheduling
// stall on a shared host to move it, so the median needs many.
const setupReps = 11

// setupTime is the median process CPU time and wall time of one set-up, in
// seconds.
type setupTime struct{ cpu, wall float64 }

// setUp runs setup setupReps times, closing every instance but the last,
// and returns the last one with its median set-up times.
func setUp[T any](setup func() (T, error), close func(T)) (T, setupTime, error) {
	var last T
	var cpu, wall []float64
	for i := 0; i < setupReps; i++ {
		start, cpu0 := time.Now(), cpuSeconds()
		cur, err := setup()
		if i > 0 {
			close(last)
		}
		if err != nil {
			var zero T
			return zero, setupTime{}, err
		}
		cpu = append(cpu, cpuSeconds()-cpu0)
		wall = append(wall, time.Since(start).Seconds())
		last = cur
	}
	return last, setupTime{median(cpu), median(wall)}, nil
}

// setup records the set-up times: setup_s is the CPU time.
func (o *outcome) setup(st setupTime) {
	o.e2e["setup_s"] = st.cpu
	o.figure("setup_s", st.cpu, "s (process CPU time)", setupReps)
	o.figure("setup_wall_s", st.wall, "s", setupReps)
}

// reportTraining records a training run's metrics: lat holds the step
// times in ms over elapsed, each step trained batch examples, and the
// process used cpuUsed seconds of CPU time meanwhile.
func reportTraining(out *outcome, lat []float64, elapsed time.Duration, batch int, memPeak, cpuUsed float64) {
	d := summarize(lat)
	examples := float64(len(lat) * batch)
	cpuPerEx := 1e3 * cpuUsed / examples
	out.e2e["cpu_ms_per_example"] = cpuPerEx
	out.e2e["mem_peak_mb"] = memPeak
	out.figure("cpu_ms_per_example", cpuPerEx, "ms (process CPU time over the timed phase)", len(lat))
	out.figure("examples_per_s", examples/elapsed.Seconds(), "ex/s", len(lat))
	out.figure("step_ms_p50", d.P50, "ms", d.N)
	out.figure("step_ms_p99", d.P99, "ms", d.N)
	out.figure(fmt.Sprintf("step_ms_p%.2f", d.SupportedPct), d.PSupported, "ms", d.N)
	out.figure("mem_peak_mb", memPeak, "MB", 1)
	out.figure("failed_frac", float64(out.failed)/float64(max(out.attempted, 1)), "ratio", int(out.attempted))
}

type workloadFn func(cfg config) (*outcome, error)

var workloads = map[string]workloadFn{
	"local_mlp_train":     runLocalMLP,
	"ps_sync_embed_tcp":   runPSEmbed,
	"serve_http_openloop": runServe,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.outDir = outDir

	fn, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(names, ","))
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	out, err := fn(cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", cfg.workload, err))
	}
	os.Exit(report(cfg, out))
}

// report prints the detail record and the result line, writes the record
// to the output directory, and returns the exit code.
func report(cfg config, out *outcome) int {
	defs, values := endToEnd, out.e2e
	if cfg.trace {
		defs, values = perLayer, out.layer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.checks = append(out.checks, fmt.Sprintf("metric %s is %v", d.name, v))
			v = 0
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	record := map[string]any{
		"meta":      runMeta(cfg),
		"checks":    out.checks,
		"attempted": out.attempted,
		"failed":    out.failed,
		"figures":   out.detail,
		"metrics":   metrics,
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace])
	line, err := json.Marshal(map[string]any{"detail": record})
	if err != nil {
		out.checks = append(out.checks, fmt.Sprintf("encoding the detail record: %v", err))
	} else {
		fmt.Println(string(line))
		if err := os.WriteFile(filepath.Join(cfg.outDir, name), line, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing the result record:", err)
		}
	}
	for _, c := range out.checks {
		fmt.Fprintln(os.Stderr, "check failed:", c)
	}
	correct := len(out.checks) == 0 && out.failed == 0
	if !correct {
		// A run whose checks fail reports a failure, not numbers.
		metrics = map[string]any{}
	}
	result, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(out.attempted, 1),
		"failed":    out.failed,
		"metrics":   metrics,
	})
	fmt.Println(string(result))
	if !correct {
		return 1
	}
	return 0
}

// runMeta describes the machine and the build a result came from.
func runMeta(cfg config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
