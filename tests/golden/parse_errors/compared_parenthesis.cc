main {
  if p.((x == 1) == 2) then { end } else { end }
}
