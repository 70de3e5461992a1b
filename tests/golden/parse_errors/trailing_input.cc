main { p.1 -> q.x; end }
x
