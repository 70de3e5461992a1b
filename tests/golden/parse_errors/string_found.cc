main { p.1 -> q.x; "\u00e9t\u00e9" -> q.y; end }
