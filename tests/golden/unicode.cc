# Non-ASCII process, procedure and variable names, a pair value and a
# selection.  JSON output escapes the names as ensure_ascii does (\u00e9
# for é, the surrogate pair \ud835\udcb3 for 𝒳); text output prints them raw.
def Échange(café, 𝒳) {
  café.pair(1, pair(2, 3)) -> 𝒳.ü;
  if 𝒳.fst(ü) == 1 then {
    𝒳 -> café[left];
    𝒳.snd(ü) -> café.résumé;
    end
  } else {
    𝒳 -> café[right];
    call Échange
  }
}

main {
  naïve.0 -> café.z;
  call Échange
}
