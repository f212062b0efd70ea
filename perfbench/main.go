// Command perfbench is the repository's end-to-end benchmark: it writes a
// multi-epoch trace to disk from a seed, replays it closed-loop through
// the engine's public entry points (or through the maggd binary), checks
// every answer against the oracle, and prints the metrics.
//
// Usage (see run.sh, which builds this program and maggd first):
//
//	perfbench --workload flows --seed 1 --seconds 10 --trace 0 --maggd .bench_build/maggd --work .bench_build/work
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones. README.md describes the
// workloads and every metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

func main() {
	cmd, err := "perfbench", error(nil)
	switch {
	case len(os.Args) > 1 && os.Args[1] == "fixture":
		cmd, err = "perfbench fixture", fixtureMain(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "replay":
		cmd, err = "perfbench replay", replayMain(os.Args[2:])
	default:
		err = benchMain()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func benchMain() error {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "1 = per-layer metrics from a traced run, 0 = end-to-end metrics")
		maggd   = flag.String("maggd", "", "maggd binary (maggd-flows workload)")
		work    = flag.String("work", "", "working directory for traces, oracles and stores")
	)
	flag.Parse()
	return run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *maggd, *work)
}

// The benchmark process only orchestrates: child processes build the
// fixture and run each replay. On Linux a child's rusage peak RSS starts
// from its parent's (exec records the vfork-shared image's high-water
// mark), so the parent must never hold the trace or the oracle itself.

// fixtureMain is the child process that generates the trace and the
// oracle and writes fixture.json into the run directory.
func fixtureMain(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: perfbench fixture <workload> <seed> <dir>")
	}
	w, err := lookupWorkload(args[0])
	if err != nil {
		return err
	}
	seed, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		return err
	}
	dir := args[2]
	fx, err := buildFixture(w, seed, dir, w.scale)
	if err != nil {
		return err
	}
	if w.maggd {
		// maggd's printed c1/c2 must equal the in-process counts for the
		// same plan and seed.
		ref, err := replay(fx, dir, false)
		if err != nil {
			return err
		}
		fx.Probes, fx.Transfers = ref.Probes, ref.Transfers
	}
	return fx.write(filepath.Join(dir, "fixture.json"))
}

// replayMain is the child process of one in-process replay: it prints the
// replay's measurements as one JSON line.
func replayMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench replay <fixture.json> <0|1>")
	}
	fx, err := readFixture(args[0])
	if err != nil {
		return err
	}
	out, err := replay(fx, filepath.Dir(args[0]), args[1] == "1")
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// minReplays is the fewest replays a run makes, however long they take.
const minReplays = 5

func run(name string, seed int64, dur time.Duration, traced bool, maggd, work string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if work == "" {
		return fmt.Errorf("--work is required")
	}
	if w.maggd {
		if _, err := os.Stat(maggd); err != nil {
			return fmt.Errorf("--maggd: %w", err)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, fmt.Sprintf("%s-%d-", name, seed))
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	fxPath := filepath.Join(dir, "fixture.json")
	cmd := exec.Command(self, "fixture", name, strconv.FormatInt(seed, 10), dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building the fixture: %w", err)
	}
	fx, err := readFixture(fxPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d records, %d epochs, %d windows; trace and oracle built in %.1fs\n",
		name, seed, fx.Records, fx.Epochs, fx.Windows, time.Since(t0).Seconds())

	var outs []*replayOut
	var rss []float64
	start := time.Now()
	for i := 0; i < minReplays || time.Since(start) < dur; i++ {
		// A traced run alternates traced and untraced replays, so tracing
		// overhead is measured on the same fixture in the same run.
		tr := traced && i%2 == 0
		var out *replayOut
		var maxRSS int64
		if w.maggd {
			out, maxRSS, err = maggdReplay(maggd, fx, tr)
		} else {
			out, maxRSS, err = childReplay(self, fxPath, tr)
		}
		if err != nil {
			return err
		}
		outs = append(outs, out)
		rss = append(rss, float64(maxRSS))
	}
	rep := summarize(w, fx, outs, rss, traced)
	rep.print(os.Stdout)
	return nil
}

// childReplay runs one replay in a fresh process and returns its result
// and peak RSS in KiB.
func childReplay(self, fxPath string, traced bool) (*replayOut, int64, error) {
	flag := "0"
	if traced {
		flag = "1"
	}
	cmd := exec.Command(self, "replay", fxPath, flag)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("replay: %w", err)
	}
	out := &replayOut{}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return nil, 0, fmt.Errorf("replay output: %w", err)
	}
	return out, maxRSS(cmd.ProcessState), nil
}

func maxRSS(ps *os.ProcessState) int64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss // KiB on Linux
	}
	return 0
}
