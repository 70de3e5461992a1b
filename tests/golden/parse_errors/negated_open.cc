main {
  if p.!(x) && (true then { end } else { end }
}
