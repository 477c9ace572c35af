package server

import "github.com/ioa-lab/boosting"

// SetProgressHook installs the in-package test hook that runs on the pool
// worker after every progress report of a running job. Call before
// submitting the job it is meant for.
func (s *Server) SetProgressHook(f func(boosting.Progress)) { s.progressHook = f }
