package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: with EDGAR_TEST_MAIN set,
// the test binary is edgar.
func TestMain(m *testing.M) {
	if os.Getenv("EDGAR_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectedOptionNamesFlag: an option pa.Options.Validate rejects is a
// usage error (exit 2) whose message names edgar's own flag, not the
// library field it sets.
func TestRejectedOptionNamesFlag(t *testing.T) {
	for _, tc := range []struct {
		args        []string
		flag, field string
	}{
		{[]string{"-maxfrag", "65"}, "-maxfrag", "MaxNodes"},
		{[]string{"-maxfrag", "-1"}, "-maxfrag", "MaxNodes"},
		{[]string{"-minsup", "-1"}, "-minsup", "MinSupport"},
		{[]string{"-maxrounds", "-1"}, "-maxrounds", "MaxRounds"},
		{[]string{"-maxpatterns", "-1"}, "-maxpatterns", "MaxPatterns"},
	} {
		cmd := exec.Command(os.Args[0], append(tc.args, "unread.mc")...)
		cmd.Env = append(os.Environ(), "EDGAR_TEST_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("edgar %s: %v, want exit status 2 (%s)", strings.Join(tc.args, " "), err, out)
			continue
		}
		if msg := string(out); !strings.Contains(msg, tc.flag) || strings.Contains(msg, tc.field) {
			t.Errorf("edgar %s: %q, want it to name %s and not %s", strings.Join(tc.args, " "), msg, tc.flag, tc.field)
		}
	}
}
