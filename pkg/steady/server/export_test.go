package server

// MemoRecords reports how many /v1/solve request bodies the server
// currently remembers, for the black-box tests in package server_test.
func (s *Server) MemoRecords() int { return memoLen(s) }

// WatchResume is the watch handler's resume-token parser.
var WatchResume = watchResume
