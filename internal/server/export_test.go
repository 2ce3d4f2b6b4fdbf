package server

// HoldBaseWriteLock runs fn holding m's base write lock, as a commit does:
// every base read and session evaluation waits until fn returns.
func HoldBaseWriteLock(m *Manager, fn func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fn()
}
