main {
  if p.(succ((a == b))) then { end } else { end }
}
