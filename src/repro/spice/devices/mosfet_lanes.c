/* Lane kernel of MosfetBank.stamp_iteration (repro.spice.devices.mosfet).
 *
 * One call linearises every MOSFET of a bank around the iterate x: the
 * terminal gather, the drain/source frame and reversal, the threshold
 * with body effect, the SPICE limvds/fetlim step limiting and its mask,
 * the level-1 drain current, the equivalent current and the channel
 * stamp, written straight in the bank's scatter order.
 *
 * Every lane computes the floats of the numpy lane code of mosfet.py,
 * operation for operation and in the same association order.  IEEE
 * addition, multiplication, division and sqrt are correctly rounded in
 * both, so the results are bitwise equal as long as the compiler neither
 * contracts a*b+c into a fused multiply-add nor reassociates: build with
 * -ffp-contract=off and without -ffast-math.  max_/min_ are numpy's
 * maximum/minimum (a NaN operand wins, a tie returns the first operand).
 */

#include <math.h>
#include <stdint.h>

typedef struct {
    int64_t n;                  /* lanes */
    int64_t zero_cutoff_gmbs;   /* gmbs = 0.0 on cut-off lanes */
    const int64_t *gather;      /* (4, n) rows of drain, gate, bulk, source; -1: ground */
    const int64_t *stamp_pos;   /* (10, n) out index of each stamp value; -1: dropped */
    const double *pol;
    const double *beta;
    const double *half_beta;
    const double *lam;
    const double *vto;
    const double *gamma;
    const double *neg_gamma;
    const double *phi;
    const double *two_phi;
    const double *sqrt_phi;
    const double *neg_gamma_sqrt_phi;
} Bank;

static inline double max_(double a, double b)
{
    return (a >= b || a != a) ? a : b;
}

static inline double min_(double a, double b)
{
    return (a <= b || a != a) ? a : b;
}

/* Stamp every lane of bank around x.
 *
 * vgs_last/vds_last: the limiting history; gmin_lanes: one gmin per lane,
 * or NULL for gmin on every lane.  out receives, n doubles each, the rows
 * ids, gm, gds, gmbs, vgs, vds, vbs of the linearisation, then the matrix
 * and RHS stamp values at the indices of bank->stamp_pos; flags receives
 * n reverse flags, then n limiting flags.
 *
 * The ten stamp values of a lane are, by stamp_pos row, the matrix slots
 * (d,g), (d,b), (d,d), (d,s), (s,g), (s,b), (s,d), (s,s) of the forward
 * channel and the RHS entries of the drain and the source row.
 */
void stamp_lanes(const Bank *bank, const double *x,
                 const double *vgs_last, const double *vds_last,
                 double gmin, const double *gmin_lanes,
                 double *out, unsigned char *flags)
{
    const int64_t n = bank->n;
    for (int64_t i = 0; i < n; i++) {
        double v[4];
        for (int k = 0; k < 4; k++) {
            const int64_t row = bank->gather[k * n + i];
            v[k] = row >= 0 ? x[row] : 0.0;
        }
        const double pol = bank->pol[i];
        /* Evaluation frame: against the source, or against the drain
         * with vds negated on a reversed channel. */
        double vds = pol * (v[0] - v[3]);
        double vgs = pol * (v[1] - v[3]);
        double vbs = pol * (v[2] - v[3]);
        const int reverse = vds < 0.0;
        if (reverse) {
            vgs = pol * (v[1] - v[0]);
            vbs = pol * (v[2] - v[0]);
            vds = -vds;
        }

        /* Threshold voltage von and dvon/dvbs. */
        double von, dvon;
        if (bank->gamma[i] == 0.0) {
            von = bank->vto[i];
            dvon = 0.0;
        } else {
            double sqrt_term;
            if (vbs > 0.0) {
                const double denom = 1.0 + vbs / bank->two_phi[i];
                sqrt_term = bank->sqrt_phi[i] / denom;
                dvon = bank->neg_gamma_sqrt_phi[i]
                       / (bank->two_phi[i] * denom * denom);
            } else {
                sqrt_term = sqrt(bank->phi[i] - vbs);
                dvon = bank->neg_gamma[i] / (2.0 * sqrt_term);
            }
            von = bank->vto[i] + bank->gamma[i] * (sqrt_term - bank->sqrt_phi[i]);
        }

        /* limvds (vds >= 0 here) */
        const double vds_old = vds_last[i];
        double vds_f = min_(vds, 4.0);
        if (vds_old >= 3.5)
            vds_f = max_(min_(vds, 3.0 * vds_old + 2.0), 2.0);
        /* fetlim */
        const double vt_old = vgs_last[i] - von;
        const double vt_new = vgs - von;
        double vt = min_(vt_new, max_(2.0 * vt_old + 2.0, 2.0));
        const int below = vt_new < 0.0;
        if (below && vt_old >= 0.0)
            vt = max_(vt, -0.5);
        if (vt_old > 2.0 && !below)
            vt = max_(vt, 0.5 * vt_old);
        const double vgs_f = vt + von;
        const int limited =
            fabs(vds_f - vds) > 1e-6 + 1e-3 * fabs(vds)
            || fabs(vgs_f - vgs) > 1e-6 + 1e-3 * fabs(vgs);

        /* Drain current: cut-off, saturation or triode. */
        const double beta = bank->beta[i];
        const double lam = bank->lam[i];
        const double vgst = vgs_f - von;
        const double clm = 1.0 + lam * vds_f;
        double ids, gm, gds;
        if (vgst <= 0.0) {
            ids = 0.0;
            gm = 0.0;
            gds = 0.0;
        } else if (vgst <= vds_f) {
            const double half_square = bank->half_beta[i] * vgst * vgst;
            ids = half_square * clm;
            gm = beta * vgst * clm;
            gds = half_square * lam;
        } else {
            const double triode = beta * (vgst - 0.5 * vds_f) * vds_f;
            ids = triode * clm;
            gm = beta * vds_f * clm;
            gds = beta * (vgst - vds_f) * clm + triode * lam;
        }
        double gmbs = -gm * dvon;
        if (bank->zero_cutoff_gmbs && vgst <= 0.0)
            gmbs = 0.0;

        double *op = out + i;
        op[0] = ids;
        op[n] = gm;
        op[2 * n] = gds;
        op[3 * n] = gmbs;
        op[4 * n] = vgs_f;
        op[5 * n] = vds_f;
        op[6 * n] = vbs;
        flags[i] = (unsigned char)reverse;
        flags[n + i] = (unsigned char)limited;

        /* Equivalent current and the stamp; a reversed channel's drain
         * row is the negated forward row with (d,d) and (d,s) exchanged,
         * and the source row is always the negated drain row. */
        const double ieq = ids - gm * vgs_f - gds * vds_f - gmbs * vbs;
        const double gds_tot = gds + (gmin_lanes ? gmin_lanes[i] : gmin);
        const double total = gm + gds_tot + gmbs;
        double row[5];
        const double i_rhs = pol * ieq;
        if (reverse) {
            row[0] = -gm;
            row[1] = -gmbs;
            row[2] = total;
            row[3] = -gds_tot;
            row[4] = i_rhs;
        } else {
            row[0] = gm;
            row[1] = gmbs;
            row[2] = gds_tot;
            row[3] = -total;
            row[4] = -i_rhs;
        }
        const int64_t *pos = bank->stamp_pos + i;
        for (int k = 0; k < 4; k++) {
            if (pos[k * n] >= 0)
                out[pos[k * n]] = row[k];
            if (pos[(k + 4) * n] >= 0)
                out[pos[(k + 4) * n]] = -row[k];
        }
        if (pos[8 * n] >= 0)
            out[pos[8 * n]] = row[4];
        if (pos[9 * n] >= 0)
            out[pos[9 * n]] = -row[4];
    }
}
