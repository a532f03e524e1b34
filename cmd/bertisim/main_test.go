package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// checkProfile asserts path holds a complete CPU profile: a gzip stream
// (the pprof wire format) that decompresses to a non-empty body.
func checkProfile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s is not a gzip-compressed profile: %v", path, err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s is truncated: %v", path, err)
	}
	if len(body) == 0 {
		t.Fatalf("%s holds an empty profile", path)
	}
}

// exitCode returns the process exit status carried by a Run/Wait error.
func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return ee.ExitCode()
}

// TestCPUProfileWrittenOnEveryExit: -cpuprofile leaves a complete profile
// behind whether the run succeeds (0), stops on a usage error (2), or is
// interrupted by SIGINT mid-run (130), and the exit codes are the ones
// the command documents.
func TestCPUProfileWrittenOnEveryExit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the bertisim binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "bertisim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building bertisim: %v\n%s", err, out)
	}

	t.Run("success", func(t *testing.T) {
		prof := filepath.Join(dir, "ok.pprof")
		out, err := exec.Command(bin, "-workload", "bfs-kron", "-records", "2000", "-l1d", "berti",
			"-cpuprofile", prof).CombinedOutput()
		if code := exitCode(t, err); code != exitOK {
			t.Fatalf("exit %d, want %d\n%s", code, exitOK, out)
		}
		checkProfile(t, prof)
	})

	t.Run("usage-error", func(t *testing.T) {
		prof := filepath.Join(dir, "usage.pprof")
		out, err := exec.Command(bin, "-simulate", "0", "-cpuprofile", prof).CombinedOutput()
		if code := exitCode(t, err); code != exitUsage {
			t.Fatalf("exit %d, want %d\n%s", code, exitUsage, out)
		}
		checkProfile(t, prof)
	})

	t.Run("unwritable-profile", func(t *testing.T) {
		out, err := exec.Command(bin, "-cpuprofile", filepath.Join(dir, "no-such-dir", "p.pprof")).CombinedOutput()
		if code := exitCode(t, err); code != exitRunFailed {
			t.Fatalf("exit %d, want %d\n%s", code, exitRunFailed, out)
		}
	})

	t.Run("sigint", func(t *testing.T) {
		prof := filepath.Join(dir, "int.pprof")
		cmd := exec.Command(bin, "-workload", "mcf_like_1554", "-l1d", "berti",
			"-metrics-addr", "127.0.0.1:0", "-interval", "1000", "-cpuprofile", prof)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer cmd.Process.Kill()
		// The metrics line names the bound address; a sampled row proves
		// the simulation (and so the signal handler) is running.
		sc := bufio.NewScanner(stderr)
		var metricsURL string
		for sc.Scan() {
			if u, ok := strings.CutPrefix(sc.Text(), "metrics: "); ok {
				metricsURL = u
				break
			}
		}
		if metricsURL == "" {
			t.Fatal("bertisim printed no metrics address")
		}
		var rest bytes.Buffer
		copied := make(chan struct{})
		go func() { io.Copy(&rest, stderr); close(copied) }()
		deadline := time.Now().Add(time.Minute)
		for {
			var snap struct {
				Rows uint64 `json:"sampler_rows"`
			}
			if resp, err := http.Get(metricsURL); err == nil {
				json.NewDecoder(resp.Body).Decode(&snap)
				resp.Body.Close()
			}
			if snap.Rows > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("no sampled row within the deadline")
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		<-copied
		if code := exitCode(t, cmd.Wait()); code != exitInterrupted {
			t.Fatalf("exit %d, want %d\n%s", code, exitInterrupted, rest.String())
		}
		checkProfile(t, prof)
	})
}
