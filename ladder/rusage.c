/* Peak resident set size of this process, in KiB (Linux's unit for
   ru_maxrss), from getrusage(2); -1 when the call fails. */

#include <sys/resource.h>
#include <caml/mlvalues.h>

value ladder_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return Val_long(-1);
  return Val_long(ru.ru_maxrss);
}
