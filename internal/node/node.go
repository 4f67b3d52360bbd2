// Package node assembles what the daemons serve: msodd's shard (an
// authoritative PDP over its retained ADI, or with ReplicaOf an
// advisory replica of another shard) and msodgw's gateway. Each is
// built from one config whose fields are the daemon's flags, and whose
// Validate holds every rule refusing a combination of them. The mains
// parse flags, handle signals and listen; in-process tests build the
// same shards and gateways through the same constructors.
package node

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"time"

	"msod/internal/obsv"
)

// infof logs one formatted line at info level.
func infof(logger *slog.Logger, format string, args ...any) {
	logger.Info(fmt.Sprintf(format, args...))
}

// Serve runs h on ln until ctx ends, then shuts down gracefully: the
// listener closes and in-flight requests get up to 10 s to finish.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, logger *slog.Logger) error {
	srv := &http.Server{Handler: h}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	infof(logger, "listening on %s", ln.Addr())

	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		logger.Info("shutting down")
		if err := srv.Shutdown(shutCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		<-errCh // Serve has returned ErrServerClosed
		return nil
	case err := <-errCh: // never ErrServerClosed: only the case above shuts down
		return err
	}
}

// StartPprof serves net/http/pprof on addr for the life of the process
// (nothing when addr is empty). It binds loopback only unless
// allowRemote: the profiling endpoints expose process internals.
func StartPprof(addr string, allowRemote bool, logger *slog.Logger) error {
	if addr == "" {
		return nil
	}
	addr, warn, err := obsv.SanitizePprofAddr(addr, allowRemote)
	if err != nil {
		return err
	}
	if warn {
		logger.Warn("pprof bound to a non-loopback address; profiling endpoints expose process internals",
			slog.String("addr", addr))
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof listen: %w", err)
	}
	infof(logger, "pprof on %s", ln.Addr())
	go func() { infof(logger, "pprof server stopped: %v", http.Serve(ln, obsv.PprofHandler())) }()
	return nil
}
