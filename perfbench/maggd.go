package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/attr"
	"repro/internal/query"
)

// maggdReplay runs the maggd binary over the fixture's trace and queries
// and checks it entirely from outside: its exit status, the summary
// counts it prints, and every per-epoch group count it announces. Times
// are maggd's CPU time, all threads, read as each line arrives on its
// standard output:
//
//   - setup: process start → the "configuration:" line;
//   - run: the whole process (rusage at exit), which ends right after the
//     "records:" line that follows Finish;
//   - emit latency of an epoch: the "configuration:" line → the epoch's
//     last query line. maggd reads the whole trace before it plans, so
//     that read delivered every epoch's closing record, and the
//     configuration line is the first outside sign that it returned.
//
// A line read after maggd has exited finds no threads to read; its
// sample is dropped.
//
// maggd runs with -top 1 rather than -quiet: -quiet suppresses the
// per-epoch lines the latencies and group counts are read from.
func maggdReplay(bin string, fx *Fixture, traced bool) (*replayOut, int64, error) {
	specs, err := query.ParseSet(fx.Queries)
	if err != nil {
		return nil, 0, err
	}
	rels := queryRels(specs)
	last := rels[len(rels)-1].String()
	chk, err := newChecker(fx, rels)
	if err != nil {
		return nil, 0, err
	}
	defer chk.close()

	args := []string{"-trace", fx.Trace, "-m", strconv.Itoa(fx.M), "-sample", strconv.Itoa(fx.Sample), "-top", "1"}
	for _, q := range fx.Queries {
		args = append(args, "-query", q)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	out := &replayOut{Records: fx.Records, Traced: traced}
	pid := cmd.Process.Pid
	var (
		config            time.Duration = -1
		records, epochs   int64         = -1, -1
		probes, transfers int64         = -1, -1
		groups                          = map[[2]uint32]int{}
		parseErr          error
	)
	var lastCPU time.Duration
	// cpu reads maggd's CPU clock; ok is false once maggd has exited.
	cpu := func() (d time.Duration, ok bool) {
		d, err := procCPU(pid)
		if err != nil || d < lastCPU {
			return 0, false
		}
		lastCPU = d
		return d, true
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "configuration:"):
			if d, ok := cpu(); ok {
				config = d
			}
			if i := strings.Index(line, "(modeled cost "); i >= 0 {
				f := strings.TrimSuffix(strings.Fields(line[i+len("(modeled cost "):])[0], "/record)")
				out.ModeledCost, _ = strconv.ParseFloat(f, 64)
			}
		case strings.HasPrefix(line, "-- query "):
			// "-- query AB, epoch 3: 2837 groups"
			var rel string
			var epoch uint32
			var n int
			if _, err := fmt.Sscanf(line, "-- query %s epoch %d: %d groups", &rel, &epoch, &n); err != nil {
				parseErr = fmt.Errorf("maggd line %q: %w", line, err)
				continue
			}
			rel = strings.TrimSuffix(rel, ",")
			set, err := attr.ParseSet(rel)
			if err != nil {
				parseErr = err
				continue
			}
			groups[[2]uint32{uint32(set), epoch}] = n
			out.EpochRows += int64(n)
			if rel == last && config >= 0 {
				if d, ok := cpu(); ok {
					out.LatMs = append(out.LatMs, float64(d-config)/1e6)
				}
			}
		case strings.HasPrefix(line, "records:"):
			out.WallNs = time.Since(start).Nanoseconds()
			records = field(line, 1)
		case strings.HasPrefix(line, "probes:"):
			probes = field(line, 1)
		case strings.HasPrefix(line, "transfers:"):
			transfers = field(line, 1)
		case strings.HasPrefix(line, "epochs:"):
			epochs = field(strings.ReplaceAll(line, ",", " "), 1)
		}
	}
	_, _ = io.Copy(io.Discard, stdout)
	waitErr := cmd.Wait()
	if parseErr != nil {
		return nil, 0, parseErr
	}

	// Answers: one per (query, epoch) — the announced group count must
	// match the oracle's — plus the exit status and the four summary
	// counts.
	for _, a := range chk.epochs {
		if n, ok := groups[[2]uint32{uint32(a.Rel), a.Epoch}]; ok && n == a.Rows {
			out.Correct++
		}
	}
	out.Expected = len(chk.epochs)
	checks := []struct {
		name      string
		got, want int64
	}{
		{"records", records, int64(fx.Records)},
		{"epochs", epochs, int64(fx.Epochs)},
		{"probes", probes, int64(fx.Probes)},
		{"transfers", transfers, int64(fx.Transfers)},
	}
	for _, c := range checks {
		out.Expected++
		if waitErr == nil && c.got == c.want {
			out.Correct++
		} else {
			out.Errors = append(out.Errors, fmt.Sprintf("maggd %s: printed %d, want %d", c.name, c.got, c.want))
		}
	}
	if waitErr != nil {
		out.Errors = append(out.Errors, fmt.Sprintf("maggd: %v", waitErr))
	}
	if config < 0 || out.WallNs == 0 {
		return nil, 0, fmt.Errorf("maggd printed no configuration or records line (exit: %v)", waitErr)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, 0, fmt.Errorf("maggd: no rusage")
	}
	out.SetupNs = int64(config)
	out.RunNs = syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)
	out.StagesNs, out.SpanNs = out.RunNs, out.RunNs // no stages visible from outside
	out.Epochs = int(epochs)
	out.Offered = uint64(records)
	out.LRecs = uint64(records)
	out.Probes, out.Transfers = uint64(probes), uint64(transfers)
	return out, maxRSS(cmd.ProcessState), nil
}

// field returns the i-th whitespace-separated field of line as an
// integer, or -1.
func field(line string, i int) int64 {
	f := strings.Fields(line)
	if i >= len(f) {
		return -1
	}
	v, err := strconv.ParseInt(f[i], 10, 64)
	if err != nil {
		return -1
	}
	return v
}
