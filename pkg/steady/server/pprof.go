package server

import (
	"net/http"
	"net/http/pprof"
)

// PprofMux returns a mux serving the standard net/http/pprof
// endpoints under /debug/pprof/. The server never mounts these on its
// own handler: profiling is opt-in and belongs on a separate,
// operator-only listener (steadyd -pprof-addr, served with
// ServeProfiles), so the service ports never expose stack dumps or CPU
// profiles.
func PprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
