package main_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles afllint once into a temp dir and returns its path.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "afllint")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building afllint: %v\n%s", err, out)
	}
	return bin
}

// runIn executes the command in dir, returning combined output and the
// exit code.
func runIn(t *testing.T, dir string, name string, args ...string) (string, int) {
	t.Helper()
	return runInEnv(t, dir, nil, name, args...)
}

// runInEnv is runIn with extra environment variables appended.
func runInEnv(t *testing.T, dir string, env []string, name string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	if len(env) > 0 {
		cmd.Env = append(os.Environ(), env...)
	}
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	var exitErr *exec.ExitError
	if errors.As(err, &exitErr) {
		return string(out), exitErr.ExitCode()
	}
	t.Fatalf("running %s %v: %v\n%s", name, args, err, out)
	return "", 0
}

// TestListRegistersAllAnalyzers pins the suite roster: losing an analyzer
// from the multichecker must fail loudly.
func TestListRegistersAllAnalyzers(t *testing.T) {
	bin := buildTool(t)
	out, code := runIn(t, ".", bin, "-list")
	if code != 0 {
		t.Fatalf("afllint -list exited %d:\n%s", code, out)
	}
	names := []string{
		"rawrand", "vecalias", "lockio", "typederr", "floateq",
		"lockorder", "goroleak", "netdeadline", "hotalloc",
	}
	for _, name := range names {
		if !strings.Contains(out, name) {
			t.Errorf("afllint -list is missing analyzer %q:\n%s", name, out)
		}
	}
	if lines := strings.Count(strings.TrimSpace(out), "\n") + 1; lines != len(names) {
		t.Errorf("afllint -list printed %d analyzers, want %d:\n%s", lines, len(names), out)
	}
}

// TestStandaloneCleanAndDirty runs afllint over the fixture modules: the
// clean module must exit zero, the dirty module must report a violation
// from each planted analyzer and exit nonzero.
func TestStandaloneCleanAndDirty(t *testing.T) {
	bin := buildTool(t)

	out, code := runIn(t, "testdata/clean", bin, "./...")
	if code != 0 {
		t.Fatalf("clean module: afllint exited %d, want 0:\n%s", code, out)
	}
	if strings.TrimSpace(out) != "" {
		t.Fatalf("clean module: unexpected diagnostics:\n%s", out)
	}

	out, code = runIn(t, "testdata/dirty", bin, "./...")
	if code == 0 {
		t.Fatalf("dirty module: afllint exited 0, want nonzero:\n%s", out)
	}
	for _, want := range []string{
		"(rawrand)", "(typederr)", "(floateq)", "(vecalias)",
		"(lockorder)", "(goroleak)", "(netdeadline)", "(hotalloc)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dirty module: no %s diagnostic in output:\n%s", want, out)
		}
	}
}

// TestBuildTags pins the loader's build-flag plumbing: the clean module
// hides a rawrand violation behind the extras tag, so afllint must pass
// without the tag and fail when it is supplied via -tags or GOFLAGS.
func TestBuildTags(t *testing.T) {
	bin := buildTool(t)

	out, code := runIn(t, "testdata/clean", bin, "./...")
	if code != 0 {
		t.Fatalf("clean module without tags: afllint exited %d, want 0:\n%s", code, out)
	}

	out, code = runIn(t, "testdata/clean", bin, "-tags", "extras", "./...")
	if code == 0 {
		t.Fatalf("clean module with -tags extras: afllint exited 0, want nonzero:\n%s", out)
	}
	if !strings.Contains(out, "(rawrand)") {
		t.Errorf("clean module with -tags extras: no rawrand diagnostic:\n%s", out)
	}

	out, code = runInEnv(t, "testdata/clean", []string{"GOFLAGS=-tags=extras"}, bin, "./...")
	if code == 0 {
		t.Fatalf("clean module with GOFLAGS=-tags=extras: afllint exited 0, want nonzero:\n%s", out)
	}
	if !strings.Contains(out, "(rawrand)") {
		t.Errorf("clean module with GOFLAGS=-tags=extras: no rawrand diagnostic:\n%s", out)
	}
}

// TestVettoolProtocol drives afllint through `go vet -vettool`, which
// exercises the -V=full handshake and the per-package cfg protocol.
func TestVettoolProtocol(t *testing.T) {
	bin := buildTool(t)

	out, code := runIn(t, "testdata/clean", "go", "vet", "-vettool="+bin, "./...")
	if code != 0 {
		t.Fatalf("clean module: go vet exited %d, want 0:\n%s", code, out)
	}

	out, code = runIn(t, "testdata/dirty", "go", "vet", "-vettool="+bin, "./...")
	if code == 0 {
		t.Fatalf("dirty module: go vet exited 0, want nonzero:\n%s", out)
	}
	if !strings.Contains(out, "(rawrand)") || !strings.Contains(out, "(floateq)") {
		t.Errorf("dirty module: vet output missing expected diagnostics:\n%s", out)
	}
}
