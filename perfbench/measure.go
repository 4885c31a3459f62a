package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs: the
// smallest sample with at least a q share of the samples at or below it.
// It never interpolates, so the value is always one that was measured.
// xs need not be sorted; it is not modified. An empty input yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank median.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// beyond counts the samples strictly above the nearest-rank q-quantile:
// the number of samples that back a tail percentile.
func beyond(xs []float64, q float64) int {
	p := percentile(xs, q)
	n := 0
	for _, x := range xs {
		if x > p {
			n++
		}
	}
	return n
}

// poissonSchedule returns the send offsets of an open-loop Poisson
// arrival process at rate arrivals per second over window, conditioned
// on its expected count: round(rate × window) arrival times drawn
// uniformly from the window and sorted, which is how a Poisson process
// with that many arrivals distributes them. Fixing the count keeps the
// offered load identical across seeds; the generator is seeded with
// seed, so the same seed always yields the same schedule.
func poissonSchedule(seed int64, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, int(math.Round(rate*window.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// chromeEvent is the part of a Chrome trace-event record span times need.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
}

// spanTimes is the busy time per span name of one Chrome trace, in
// seconds: total sums span durations, self sums self times.
type spanTimes struct {
	self, total map[string]float64
}

// traceSpanTimes sums, per span name, the duration and the self time of
// every complete ("X") event in a Chrome trace. Self time is the span's
// duration minus the part of it that its direct children on the same
// track cover. Work a span hands to another track (a worker pool) is not
// subtracted, so per-name sums count busy time on every track.
func traceSpanTimes(trace []byte) (spanTimes, error) {
	var file struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &file); err != nil {
		return spanTimes{}, fmt.Errorf("parsing trace: %w", err)
	}
	byTrack := map[int][]chromeEvent{}
	for _, ev := range file.TraceEvents {
		if ev.Ph == "X" {
			byTrack[ev.Tid] = append(byTrack[ev.Tid], ev)
		}
	}
	selfUS, totalUS := map[string]float64{}, map[string]float64{}
	for _, evs := range byTrack {
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].Ts < evs[j].Ts {
				return true
			}
			if evs[i].Ts > evs[j].Ts {
				return false
			}
			return evs[i].Dur > evs[j].Dur
		})
		var stack []chromeEvent
		for _, ev := range evs {
			for len(stack) > 0 && stack[len(stack)-1].Ts+stack[len(stack)-1].Dur <= ev.Ts {
				stack = stack[:len(stack)-1]
			}
			selfUS[ev.Name] += ev.Dur
			totalUS[ev.Name] += ev.Dur
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				covered := math.Min(ev.Ts+ev.Dur, parent.Ts+parent.Dur) - ev.Ts
				selfUS[parent.Name] -= covered
			}
			stack = append(stack, ev)
		}
	}
	out := spanTimes{self: map[string]float64{}, total: map[string]float64{}}
	for name, us := range selfUS {
		out.self[name] = us / 1e6
		out.total[name] = totalUS[name] / 1e6
	}
	return out, nil
}

// errDigestMismatch marks an output whose bytes differ from the reference.
var errDigestMismatch = errors.New("output digest differs from reference")

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// verifyNotebook checks one produced notebook: its bytes must hash to the
// reference digest and parse as an nbformat-4 document with cells.
func verifyNotebook(ipynb []byte, wantDigest string) error {
	if got := digest(ipynb); got != wantDigest {
		return fmt.Errorf("%w: got %.12s, want %.12s", errDigestMismatch, got, wantDigest)
	}
	var nb struct {
		NBFormat int               `json:"nbformat"`
		Cells    []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(ipynb, &nb); err != nil {
		return fmt.Errorf("notebook is not JSON: %w", err)
	}
	if nb.NBFormat != 4 || len(nb.Cells) == 0 {
		return fmt.Errorf("notebook has nbformat %d and %d cells", nb.NBFormat, len(nb.Cells))
	}
	return nil
}

// procStatusKB reads one "<key>: <n> kB" line of /proc/<pid>/status.
func procStatusKB(pid int, key string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), key+":")
		if !ok {
			continue
		}
		return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s line", pid, key)
}

// peakRSSMB is the peak resident set (VmHWM) of a process, in MB.
func peakRSSMB(pid int) (float64, error) {
	kb, err := procStatusKB(pid, "VmHWM")
	return float64(kb) / 1024, err
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// mountFS names the filesystem type of the mount holding path, from the
// longest matching mount point in /proc/self/mounts.
func mountFS(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, fstype := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > best {
			best, fstype = len(mnt), f[2]+" on "+mnt
		}
	}
	return fstype
}
