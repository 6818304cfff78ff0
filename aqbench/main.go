// Command aqbench is the repository's end-to-end benchmark: a load
// generator that drives a real aqserver over loopback — queries
// registered over /api/, line-protocol tuples over one TCP connection,
// progress and results read back over HTTP — and, with -trace 1, an
// in-process replay of the same tuples through each layer's public
// functions that splits the cost per layer. Build and run it through
// run.sh; NOTES.md explains the workloads and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/stream"
)

// liveServer is the server child currently running, for the signal
// handler.
var liveServer atomic.Pointer[server]

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	server   string
	out      string
	work     string // scratch directory of this run, removed at exit
}

const (
	setupTrials    = 11                    // server start-ups per run; setup_s is their median
	maxLatenessP99 = 50 * time.Millisecond // open-loop generator lateness beyond which a run is invalid
	runDeadline    = 150 * time.Second     // the whole run must finish well inside 180 s
)

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload name: aq-wire, kslack-fanout4 or grouped-durable")
	flag.Uint64Var(&c.seed, "seed", 1, "input seed")
	flag.IntVar(&c.seconds, "seconds", 16, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: also run the traced per-layer replay and report per-layer metrics")
	flag.StringVar(&c.server, "server", "", "aqserver binary")
	flag.StringVar(&c.out, "out", ".bench_build", "directory for logs, result files and spans")
	flag.Parse()
	c.trace = trace == 1
	if c.server == "" || c.seconds < 2 {
		fmt.Fprintln(os.Stderr, "aqbench: -server is required and -seconds must be >= 2 (use run.sh)")
		os.Exit(2)
	}
	c.work = filepath.Join(c.out, fmt.Sprintf("work-%d", os.Getpid()))
	// An interrupted run stops its server before exiting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		if s := liveServer.Load(); s != nil {
			s.cmd.Process.Kill()
			<-s.exited
		}
		os.RemoveAll(c.work)
		os.Exit(1)
	}()
	r, rep, err := run(c)
	os.RemoveAll(c.work)
	if rep != nil {
		rep.print(os.Stdout)
		if werr := rep.write(c); werr != nil {
			fmt.Fprintln(os.Stderr, "aqbench: writing result file:", werr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aqbench: run failed:", err)
		// A failed run reports its operation counts but no timings.
		r.Correct, r.Metrics = false, map[string]metric{}
	}
	line, _ := json.Marshal(r)
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

// report is everything a run records: the result plus the human-readable
// table and the provenance written to the result file.
type report struct {
	Workload   string               `json:"workload"`
	Seed       uint64               `json:"seed"`
	Seconds    int                  `json:"seconds"`
	Trace      bool                 `json:"trace"`
	Host       map[string]any       `json:"host"`
	Params     map[string]any       `json:"params"`
	Metrics    map[string]metric    `json:"metrics"`
	Extra      map[string]metric    `json:"extra"`
	Series     map[string][]float64 `json:"series"`
	Checks     []string             `json:"checks"`
	Correct    bool                 `json:"correct"`
	FailReason string               `json:"fail_reason,omitempty"`
}

func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "aqbench %s seed=%d seconds=%d trace=%v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	for _, k := range []string{"num_cpu", "gomaxprocs", "cpu_model", "go_version", "commit"} {
		fmt.Fprintf(w, "  host %-28s %v\n", k, rep.Host[k])
	}
	for _, k := range sortedKeys(rep.Params) {
		fmt.Fprintf(w, "  param %-27s %v\n", k, rep.Params[k])
	}
	for _, c := range rep.Checks {
		fmt.Fprintf(w, "  check %s\n", c)
	}
	for _, set := range []map[string]metric{rep.Metrics, rep.Extra} {
		for _, k := range sortedKeys(set) {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, set[k].Value, set[k].Unit)
		}
	}
	if rep.FailReason != "" {
		fmt.Fprintf(w, "  FAILED: %s\n", rep.FailReason)
	}
}

func (rep *report) write(c config) error {
	dir := filepath.Join(c.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", c.workload, c.seed, map[bool]int{false: 0, true: 1}[c.trace])
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// run executes one workload run. The returned report is non-nil once the
// run got far enough to describe itself.
func run(c config) (result, *report, error) {
	start := time.Now()
	deadline := start.Add(runDeadline)
	r := result{Metrics: map[string]metric{}}
	w, err := findWorkload(c.workload)
	if err != nil {
		return r, nil, err
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return r, nil, err
	}
	n := w.closedPerSec * c.seconds
	openDur := time.Duration(c.seconds) * time.Second / 2
	chunk := w.openRate * int(openTick) / int(time.Second)
	m := chunk * int(openDur/openTick)

	rep := &report{
		Workload: w.name, Seed: c.seed, Seconds: c.seconds, Trace: c.trace,
		Host:    hostInfo(),
		Metrics: map[string]metric{}, Extra: map[string]metric{},
		Params: map[string]any{
			"closed_tuples_N":       n,
			"in_flight_W":           inFlight,
			"closed_chunk_tuples":   closedChunk,
			"open_rate_tps":         w.openRate,
			"open_tuples":           m,
			"open_seconds":          openDur.Seconds(),
			"open_tick_ms":          openTick.Seconds() * 1000,
			"server_flags":          strings.Join(w.serverFlags("<tmp>"), " "),
			"server_gomaxprocs":     "default (" + strconv.Itoa(runtime.NumCPU()) + ")",
			"queries":               queryTexts(w),
			"setup_trials":          setupTrials,
			"max_lateness_p99_ms":   maxLatenessP99.Seconds() * 1000,
			"results_compared_each": lastN,
		},
	}
	fail := func(format string, args ...any) (result, *report, error) {
		err := fmt.Errorf(format, args...)
		rep.FailReason = err.Error()
		return r, rep, err
	}
	// Set-up, untimed: inputs, wire bytes and the reference outputs.
	seg := newSegment(w.generate(n, c.seed, 0))
	closeWM := seg.closeWM
	r.Attempted = int64(n+m) * int64(len(w.queries))
	closedWire := encodeWire(seg.tuples, closedChunk, 1)
	openWire := encodeWire(w.generate(m, c.seed^0x9e3779b97f4a7c15, closeWM+stream.Second),
		chunk, uint64(len(closedWire.chunks)+1))
	refs := make(map[string]*refOutput, len(w.queries))
	want := make(map[string]int64, len(w.queries))
	ros, err := runReferences(w.queries, seg)
	if err != nil {
		return fail("%v", err)
	}
	for i, q := range w.queries {
		refs[q.name], want[q.name] = ros[i], ros[i].count
	}
	exact := newExactIndex(seg.tuples)
	runtime.GC()

	// Server set-up, timed setupTrials times; the last server is kept.
	var setups []float64
	var srv *server
	for k := 0; k < setupTrials; k++ {
		dur := filepath.Join(c.work, "durable", strconv.Itoa(k))
		os.RemoveAll(dur)
		s, d, err := startServer(c.server, filepath.Join(c.out, "aqserver.log"), w, dur)
		if err != nil {
			return fail("server set-up: %v", err)
		}
		setups = append(setups, d.Seconds())
		if k < setupTrials-1 {
			s.stop()
			os.RemoveAll(dur)
			continue
		}
		srv = s
		defer func() { srv.stop(); os.RemoveAll(dur) }()
	}
	conn, err := dialWire(srv.tcpAddr, w.source)
	if err != nil {
		return fail("dial ingest: %v", err)
	}
	defer conn.Close()

	// Closed loop.
	cl, err := runClosed(srv, conn, closedWire, seg, want, w, deadline)
	if err != nil {
		return fail("closed loop: %v", err)
	}
	// Every tuple sent counts as attempted, the closing nudges' stragglers
	// included.
	closedSent := int64(n) + cl.nudges
	allSent := closedSent + int64(m)
	r.Attempted = allSent * int64(len(w.queries))
	rep.Extra["closed.nudges"] = metric{float64(cl.nudges), "count"}
	rep.Series = map[string][]float64{"closed.slice_tps": cl.sliceTPS, "closed.slice_cpu_us_per_tuple": cl.sliceCPU}
	var wq windowQuality
	for _, q := range w.queries {
		st := cl.final[q.name]
		r.Failed += closedSent - st.TuplesIn + st.Shed
		switch {
		case st.TuplesIn != closedSent:
			return fail("%s processed %d of %d tuples", q.name, st.TuplesIn, closedSent)
		case st.Shed != 0 || st.Panics != 0:
			return fail("%s shed %d tuples, %d panics in the closed loop", q.name, st.Shed, st.Panics)
		case st.Windows != want[q.name]:
			return fail("%s emitted %d windows, reference %d", q.name, st.Windows, want[q.name])
		}
		got, err := srv.results(q.name, lastN)
		if err != nil {
			return fail("%v", err)
		}
		if err := sameWindows(q.name, got, refs[q.name].last); err != nil {
			return fail("%v", err)
		}
		wq.assess(q, refs[q.name].scored, exact, closeWM)
	}
	rep.Checks = append(rep.Checks,
		fmt.Sprintf("closed loop: every query processed N=%d tuples (+%d nudge stragglers), shed 0, emitted its reference window count", n, cl.nudges),
		fmt.Sprintf("closed loop: final %d windows per query equal the cq reference bit for bit", lastN))

	// Open loop, on the same server and connection.
	ol, err := runOpen(srv, conn, openWire, w.openRate, closedSent, w, c.trace, deadline)
	if err != nil {
		return fail("open loop: %v", err)
	}
	r.Failed = 0
	for _, q := range w.queries {
		st := ol.final[q.name]
		r.Failed += allSent - st.TuplesIn + st.Shed
		if st.TuplesIn != allSent || st.Shed != 0 {
			return fail("%s after the open loop: processed %d of %d, shed %d", q.name, st.TuplesIn, allSent, st.Shed)
		}
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return fail("%v", err)
	}
	rep.Checks = append(rep.Checks, fmt.Sprintf("open loop: every query processed all %d tuples, shed 0", allSent))

	lateP99 := percentile(ol.latenessMS, 0.99)
	if lateP99 > maxLatenessP99.Seconds()*1000 {
		return fail("generator ran late: open-loop lateness p99 %.1f ms exceeds %.0f ms", lateP99, maxLatenessP99.Seconds()*1000)
	}
	lagP99, ok := blockP99(ol.lagMS)
	if !ok {
		return fail("lag_p99_ms: %d samples, fewer than one block of %d", len(ol.lagMS), lagBlock)
	}
	latP50, _ := worst(wq.latencyMS, 0.50, msPercentile)
	latP95, ok1 := worst(wq.latencyMS, 0.95, msPercentile)
	errP95, ok2 := worst(wq.relErr, 0.95, percentile)
	if !ok1 || !ok2 {
		return fail("a query has too few windows for p95 (%d beyond needed)", minBeyond)
	}

	theta := w.theta
	if theta == 0 {
		theta = 0.01 // the paper's θ, as a reference bar for fixed-slack workloads
	}
	violations, windows := 0, 0
	for _, errs := range wq.relErr {
		for _, e := range errs {
			if e > theta {
				violations++
			}
		}
		windows += len(errs)
	}
	cpuPer := median(cl.sliceCPU)
	e2e := map[string]metric{
		"setup_s":               {median(setups), "s"},
		"throughput_tps":        {median(cl.sliceTPS), "1/s"},
		"cpu_us_per_tuple":      {cpuPer, "us"},
		"lag_p50_ms":            {percentile(ol.lagMS, 0.50), "ms"},
		"server_rss_peak_mb":    {rss, "MB"},
		"result_latency_p50_ms": {latP50, "ms"},
		"result_latency_p95_ms": {latP95, "ms"},
		"window_err_p95":        {errP95, "ratio"},
	}
	failedFrac := float64(r.Failed) / float64(allSent)
	rep.Extra["failed_frac"] = metric{failedFrac, "ratio"}
	rep.Extra["closed.whole_loop_tps"] = metric{float64(n) / cl.elapsed.Seconds(), "1/s"}
	rep.Extra["closed.whole_loop_cpu_us_per_tuple"] = metric{float64(cl.serverCPU.Microseconds()) / float64(n), "us"}
	rep.Extra["closed.slices"] = metric{float64(len(cl.sliceTPS)), "count"}
	rep.Extra["theta_violation_frac"] = metric{float64(violations) / float64(windows), "ratio"}
	rep.Extra["generator.cpu_us_per_tuple"] = metric{float64(cl.genCPU.Microseconds()) / float64(n), "us"}
	rep.Extra["generator.lateness_p99_ms"] = metric{lateP99, "ms"}
	rep.Extra["samples.lag"] = metric{float64(len(ol.lagMS)), "count"}
	// Printed on every run, but a per-layer figure: its run-to-run spread
	// on a shared 2-vCPU host is wider than any bound the benchmark may set.
	rep.Extra["lag_p99_ms"] = metric{lagP99, "ms"}
	rep.Extra["samples.error_windows"] = metric{float64(windows), "count"}

	if !c.trace {
		rep.Metrics = e2e
		rep.Correct = true
		r.Correct, r.Metrics = true, e2e
		return r, rep, nil
	}
	for k, v := range e2e {
		rep.Extra["e2e."+k] = v
	}

	// Traced per-layer replay, in-process, after the server is gone.
	srv.stop()
	layers, attributedUS, err := perLayer(w, seg, refs, c, rep)
	if err != nil {
		return fail("replay: %v", err)
	}
	var shed float64
	for _, st := range ol.final {
		shed += float64(st.Shed)
	}
	layers["fanout.shed_tuples"] = metric{shed, "count"}
	layers["fanout.lag_batches_p99"] = metric{percentile(ol.fanoutLag, 0.99), "batches"}
	layers["aqserver.queue_depth_p99"] = metric{percentile(ol.queueDepth, 0.99), "tuples"}
	wl := 0.0
	if ol.wireLatCnt > 0 {
		wl = ol.wireLatSum / ol.wireLatCnt
	}
	layers["aqserver.wire_latency_mean_ms"] = metric{wl, "ms"}
	layers["aqserver.unattributed_us_per_tuple"] = metric{cpuPer - attributedUS, "us"}
	layers["aqserver.failed_frac"] = metric{failedFrac, "ratio"}
	layers["lag_p99_ms"] = rep.Extra["lag_p99_ms"]
	layers["core.theta_violation_frac"] = rep.Extra["theta_violation_frac"]
	layers["generator.cpu_us_per_tuple"] = rep.Extra["generator.cpu_us_per_tuple"]
	layers["generator.lateness_p99_ms"] = rep.Extra["generator.lateness_p99_ms"]
	rep.Metrics = layers
	rep.Correct = true
	r.Correct, r.Metrics = true, layers
	return r, rep, nil
}

// perLayer runs the untraced and the traced replay, checks both against
// the reference outputs, and derives the per-layer metrics plus the
// summed on-path self time per tuple, in µs.
func perLayer(w *workload, seg *segment, refs map[string]*refOutput, c config, rep *report) (map[string]metric, float64, error) {
	dir := filepath.Join(c.work, "replay")
	plain, err := replay(w, seg, dir, nil)
	if err != nil {
		return nil, 0, err
	}
	rec := newRecorder(fmt.Sprintf("%s-seed%d", w.name, c.seed), seg.len()/8)
	traced, err := replay(w, seg, dir, rec)
	if err != nil {
		return nil, 0, err
	}
	for _, rr := range []*replayResult{plain, traced} {
		for _, p := range rr.pipes {
			ref := refs[p.q.name]
			if p.out.count != ref.count || p.out.digest() != ref.digest {
				return nil, 0, fmt.Errorf("replay of %s emitted %d windows (digest %x), reference %d (%x)",
					p.q.name, p.out.count, p.out.digest(), ref.count, ref.digest)
			}
		}
	}
	rep.Checks = append(rep.Checks, "replay: untraced and traced replays emit every reference window, digest-identical")

	// Layers the server path does not run are probed off-path.
	var lc layerCounters
	onPath := map[string]bool{spanDecode: true, spanPublish: true, spanFanout: true, spanWindow: true}
	prefix := seg.prefix(probeTuples)
	for _, p := range traced.pipes {
		switch {
		case p.q.stmt.GroupBy:
			onPath[spanCQ] = true
		case p.aq != nil:
			onPath[spanAQ] = true
			lc.trace = p.aq.Trace()
		default:
			onPath[spanKSlack] = true
			lc.stragglers += p.h.Stats().Stragglers
		}
		if p.dlog != nil {
			onPath[spanDurable] = true
			lc.addDurable(p.dm, traced.tuples)
		}
	}
	if !onPath[spanKSlack] {
		probeKSlack(rec, prefix, &lc)
	}
	if !onPath[spanAQ] {
		probeAQ(rec, prefix, &lc)
	}
	if !onPath[spanCQ] {
		if err := probeCQ(rec, prefix); err != nil {
			return nil, 0, err
		}
	}
	if !onPath[spanDurable] {
		if err := probeDurable(rec, prefix, dir, &lc); err != nil {
			return nil, 0, err
		}
	}
	// One span file per workload, overwritten by its next traced run: a
	// kslack-fanout4 replay writes about 400 000 spans.
	spansPath := filepath.Join(c.out, fmt.Sprintf("spans-%s.jsonl", w.name))
	if err := rec.write(spansPath); err != nil {
		return nil, 0, err
	}

	self := selfTimes(rec.spans)
	nt := float64(traced.tuples)
	np := float64(len(prefix))
	per := func(layer string) float64 {
		if onPath[layer] {
			return float64(self[layer]) / nt
		}
		return float64(self[layer]) / np
	}
	netAllocs, winAllocs, err := allocsPerTuple(w, prefix)
	if err != nil {
		return nil, 0, err
	}
	var attributed float64
	for layer, on := range onPath {
		if on {
			attributed += per(layer)
		}
	}
	var kChanges int
	var kSum float64
	for i, s := range lc.trace {
		kSum += float64(s.K)
		if i > 0 && s.K != lc.trace[i-1].K {
			kChanges++
		}
	}
	steps := float64(len(lc.trace))
	kFrac, meanK := 0.0, 0.0
	if steps > 0 {
		kFrac, meanK = float64(kChanges)/steps, kSum/steps
	}
	bytesPerItem := 0.0
	if lc.durableItems > 0 {
		bytesPerItem = lc.durableBytes / float64(lc.durableItems)
	}
	overhead := (traced.wall.Seconds() - plain.wall.Seconds()) / plain.wall.Seconds()
	rep.Params["spans_file"] = spansPath
	rep.Params["on_path_layers"] = sortedKeys(onPath)
	return map[string]metric{
		"netstream.self_ns_per_tuple":    {per(spanDecode), "ns"},
		"netstream.encode_ns_per_tuple":  {float64(self[spanEncode]) / nt, "ns"},
		"netstream.allocs_per_tuple":     {netAllocs, "allocs"},
		"netstream.wire_bytes_per_tuple": {float64(traced.wireBytes) / nt, "bytes"},
		"fleet.self_ns_per_tuple":        {per(spanPublish), "ns"},
		"fanout.self_ns_per_tuple":       {per(spanFanout), "ns"},
		"buffer.self_ns_per_tuple":       {per(spanKSlack), "ns"},
		"buffer.stragglers":              {float64(lc.stragglers), "count"},
		"core.self_ns_per_tuple":         {per(spanAQ), "ns"},
		"core.adapt_steps":               {steps, "count"},
		"core.k_change_frac":             {kFrac, "ratio"},
		"core.mean_k_ms":                 {meanK, "ms"},
		"window.self_ns_per_tuple":       {per(spanWindow), "ns"},
		"window.allocs_per_tuple":        {winAllocs, "allocs"},
		"window.results":                 {float64(traced.windowRes), "count"},
		"cq.self_ns_per_tuple":           {per(spanCQ), "ns"},
		"durable.self_ns_per_item":       {per(spanDurable), "ns"},
		"durable.bytes_per_item":         {bytesPerItem, "bytes"},
		"durable.commits":                {lc.commits, "count"},
		"replay.trace_overhead_frac":     {overhead, "ratio"},
	}, attributed / 1000, nil
}

func queryTexts(w *workload) []string {
	out := make([]string, len(w.queries))
	for i, q := range w.queries {
		out[i] = q.name + ": " + q.cql
	}
	return out
}

// hostInfo describes the machine and the code under test.
func hostInfo() map[string]any {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  model,
		"go_version": runtime.Version(),
		"commit":     commitID(),
	}
}

// commitID names the code under test: the git commit when the checkout
// is a repository, else a SHA-256 over go.mod and every Go file under
// cmd/ and internal/.
func commitID() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	for _, root := range []string{"go.mod", "cmd", "internal"} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !(strings.HasSuffix(path, ".go") || path == "go.mod") {
				return nil
			}
			b, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
				h.Write(b)
			}
			return nil
		})
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
