package main

import "os"

// resetPeakRSS starts a measured run's peak_rss_mb: it resets pid's
// ("self" for this process) peak resident set, VmHWM, to its current
// resident set through clear_refs, so that the VmHWM read when the run
// ends is the peak of the run alone, without set-up or input
// generation. Where the kernel refuses the reset it returns false, and
// the reading is the process's lifetime peak.
func resetPeakRSS(pid string) bool {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0) == nil
}
