def X(p, q) { p.1 -> q.x; end }

def X(q) { end }

main { call X }
