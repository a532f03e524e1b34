package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is a point-in-time reading of the process and host counters
// the benchmark reports as deltas.
type procSample struct {
	wall      time.Time
	cpu       time.Duration // user + sys of this process (getrusage)
	wchar     uint64        // bytes passed to write(2) and friends (/proc/self/io)
	steal     uint64        // host steal jiffies (/proc/stat)
	total     uint64        // host jiffies of all kinds (/proc/stat)
	gcCycles  uint32
	gcPauseNs uint64
	allocB    uint64
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSample{
		wall:      time.Now(),
		cpu:       processCPU(),
		wchar:     procSelfWchar(),
		gcCycles:  ms.NumGC,
		gcPauseNs: ms.PauseTotalNs,
		allocB:    ms.TotalAlloc,
	}
	s.steal, s.total = hostStealJiffies()
	return s
}

// processCPU is this process's user + system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss is in KiB on
// Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procSelfWchar reads the wchar counter of /proc/self/io (0 where the file
// does not exist).
func procSelfWchar() uint64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wchar: "); ok {
			n, _ := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// hostStealJiffies returns the host-wide steal and total jiffies from the
// aggregate cpu line of /proc/stat (zeros where it cannot be read).
func hostStealJiffies() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so it is left out of total.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealFrac is the share of host CPU time stolen by the hypervisor between
// two samples.
func stealFrac(a, b procSample) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// fsType names the filesystem holding path, for the run log.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return "0x" + strconv.FormatUint(uint64(st.Type), 16)
	}
}
