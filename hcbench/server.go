package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hcperf/internal/service"
	"hcperf/internal/store"
)

// serverFlags are the flags the benchmark passes to hcperf-serve: the two
// deployment settings. Every other setting is the shipped default.
func serverFlags(storeDir string) []string {
	return []string{"-addr", "127.0.0.1:0", "-store", storeDir}
}

// target is a running server under test: the shipped binary in its own
// process for measured runs, or service.New in this process for traced
// runs, where srv exposes the manager and disk the store handle.
type target struct {
	base string
	pid  int                  // the process hosting the server
	cpu  func() time.Duration // its CPU time
	stop func() error

	srv   *service.Server
	disk  *store.Disk
	spans *spanLog
}

var listenRE = regexp.MustCompile(`listening on (\S+) `)

// startBinary boots the built hcperf-serve on storeDir and waits until it
// answers /healthz.
func startBinary(bin, storeDir string) (*target, error) {
	cmd := exec.Command(bin, serverFlags(storeDir)...)
	// The server must not outlive the benchmark, even when the benchmark
	// is killed before it can stop the server itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	exited := make(chan struct{})
	var waitErr error
	addrc := make(chan string, 1)
	var logMu sync.Mutex
	var logBuf bytes.Buffer
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			logMu.Lock()
			logBuf.WriteString(line + "\n")
			logMu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
		waitErr = cmd.Wait()
		close(exited)
	}()
	stop := func() error {
		select {
		case <-exited:
			return fmt.Errorf("hcperf-serve exited early: %v", waitErr)
		default:
		}
		_ = cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-exited:
		case <-time.After(20 * time.Second):
			_ = cmd.Process.Kill()
			<-exited
			return errors.New("hcperf-serve did not drain within 20s")
		}
		if waitErr != nil {
			logMu.Lock()
			defer logMu.Unlock()
			return fmt.Errorf("hcperf-serve: %v\n%s", waitErr, logBuf.String())
		}
		return nil
	}
	var addr string
	select {
	case addr = <-addrc:
	case <-exited:
		return nil, fmt.Errorf("hcperf-serve exited before listening: %v\n%s", waitErr, logBuf.String())
	case <-time.After(20 * time.Second):
		_ = stop()
		return nil, errors.New("hcperf-serve did not start listening within 20s")
	}
	pid := cmd.Process.Pid
	t := &target{base: "http://" + addr, stop: stop, pid: pid, cpu: func() time.Duration { return procCPU(pid) }}
	if err := waitHealthy(t.base); err != nil {
		_ = stop()
		return nil, err
	}
	return t, nil
}

// startInProcess hosts service.New with its shipped defaults on storeDir,
// wrapping the handler and the execute stage so the benchmark records a
// span for each.
func startInProcess(storeDir string) (*target, error) {
	spans := newSpanLog()
	disk, err := store.OpenDisk(storeDir, 0, nil)
	if err != nil {
		return nil, err
	}
	// The shipped defaults of hcperf-serve's flags.
	cfg := service.Config{Workers: 4, QueueSize: 64, CacheSize: 128, Disk: disk, Run: spans.wrapRun(service.Execute)}
	srv := service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: spans.wrapHandler(srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		herr := hs.Shutdown(ctx)
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			herr = errors.Join(herr, err)
		}
		return errors.Join(herr, srv.Manager().Shutdown(ctx))
	}
	t := &target{base: "http://" + ln.Addr().String(), stop: stop, pid: os.Getpid(),
		cpu: selfCPU, srv: srv, disk: disk, spans: spans}
	if err := waitHealthy(t.base); err != nil {
		_ = stop()
		return nil, err
	}
	return t, nil
}

func waitHealthy(base string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy within 20s: %v", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// peakRSS reads a process's high-water resident set (VmHWM) in MiB, or 0
// where /proc is unavailable.
func peakRSS(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS resets a process's high-water resident set to its current
// resident set by writing 5 to /proc/<pid>/clear_refs.
func resetPeakRSS(pid int) error {
	if err := os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak resident set: %w", err)
	}
	return nil
}

// rssPeaks records a server's peak resident set in each second of a
// measured window: every second it reads the high-water mark and resets
// it. Over the whole window, a server's peak is one brief spike whose size
// follows the seed's request order, so it moves from seed to seed by up to
// half (34 to 51 MiB on serve-hit) while the resident set is steady; the
// median of the per-second peaks is the peak the server holds in a typical
// second of the load.
type rssPeaks struct {
	pid   int
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

// sampleRSSPeaks resets pid's high-water mark and starts recording.
func sampleRSSPeaks(pid int) (*rssPeaks, error) {
	s := &rssPeaks{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	if err := resetPeakRSS(pid); err != nil {
		return nil, err
	}
	go s.loop()
	return s, nil
}

func (s *rssPeaks) loop() {
	defer close(s.done)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			s.peaks = append(s.peaks, peakRSS(s.pid))
			return
		case <-tick.C:
			s.peaks = append(s.peaks, peakRSS(s.pid))
			if err := resetPeakRSS(s.pid); err != nil {
				s.err = err
				return
			}
		}
	}
}

// finish stops recording and returns the per-second peaks in MiB, the
// last from the partial second before the stop.
func (s *rssPeaks) finish() ([]float64, error) {
	close(s.stop)
	<-s.done
	return s.peaks, s.err
}

// reportRSS records a server's peak_rss_mb, the median per-second peak,
// and prints the window's peak beside it.
func reportRSS(r *result, peaks []float64) {
	r.add("peak_rss_mb", median(peaks), "MiB", len(peaks), "server peak resident set per second, median")
	max := 0.0
	for _, p := range peaks {
		max = math.Max(max, p)
	}
	r.note("peak_rss_window_mb", max, "MiB", len(peaks))
}

// procCPU reads a process's CPU time: the scheduler's run time of each of
// its threads, in nanoseconds, from the first field of
// /proc/<pid>/task/<tid>/schedstat. (/proc/<pid>/stat rounds it to 10 ms
// ticks, too coarse for a set-up that takes a tenth of a second.) CPU time,
// unlike wall time, leaves out the time a virtual machine's CPUs are stolen
// by its host.
func procCPU(pid int) time.Duration {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread has exited
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			v, _ := strconv.ParseInt(f[0], 10, 64)
			ns += v
		}
	}
	return time.Duration(ns)
}

// selfCPU is this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// newClient returns the load's HTTP client: at most conns connections to
// the server, kept alive between requests.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// spanHeader carries the benchmark's request ID to the traced handler
// wrapper, so the handler span and the client span of one request share it.
const spanHeader = "X-Hcbench-Span"

// do sends one request and reads the whole response; the returned time is
// when the last response byte arrived.
func do(c *http.Client, method, url string, body []byte, span int64) (int, []byte, time.Time, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Time{}, err
	}
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, time.Now(), err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, time.Now(), err
}
