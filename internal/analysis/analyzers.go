package analysis

// DefaultAnalyzers returns the full msodvet suite, configured for this
// module's layout. Each call returns fresh analyzer instances so
// cross-package state (metricname's registry) does not leak between
// runs.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		&Failclosed{Packages: DefaultFailclosedPackages},
		&Auditerr{AuditPackages: DefaultAuditPackages},
		&Clockuse{Packages: DefaultClockusePackages},
		&Ctxflow{Packages: DefaultCtxflowPackages},
		&Metricname{},
		&Lockspan{},
		&Decisionro{},
	}
}
