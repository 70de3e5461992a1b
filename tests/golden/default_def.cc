def X(p0) { end }
main { p.1 -> q.x; call X }
